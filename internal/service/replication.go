package service

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mkse/internal/durable"
	"mkse/internal/protocol"
)

// WAL-shipping replication. A primary cloud daemon backed by the durable
// storage engine serves its write-ahead log over the wire protocol's
// replication verbs: a follower subscribes from its own log position, the
// primary bootstraps it from the newest checkpoint if the requested records
// have been pruned, then streams record batches as mutations arrive and
// heartbeats when idle. The follower replays every record through its own
// durable engine — logging before applying, exactly like a primary-side
// mutation — so a follower directory is crash-safe, resumes from its
// recovered position after a restart, and can be promoted to primary by
// simply restarting the daemon without -replica-of. Followers acknowledge
// their applied position on the same connection, which is what the primary
// reports as per-follower lag.

const (
	// replicaBatchBytes caps the record payload shipped per batch message,
	// comfortably under protocol.MaxFrameSize with envelope overhead.
	replicaBatchBytes = 4 << 20
	// snapshotChunkBytes slices a bootstrap checkpoint into frames.
	snapshotChunkBytes = 4 << 20
	// replicaRetryMin/Max bound the follower's reconnect backoff.
	replicaRetryMin = 100 * time.Millisecond
	replicaRetryMax = 5 * time.Second
)

// WALSource is the slice of the durable engine the replication server
// needs: positions, terms, record tailing, and checkpoint bytes for
// bootstrap. *durable.Engine satisfies it.
type WALSource interface {
	// Position returns the current log sequence number.
	Position() uint64
	// OldestRetained returns the oldest log position still replayable.
	OldestRetained() uint64
	// ReadWAL returns record payloads from a position (see durable.Engine.ReadWAL).
	ReadWAL(from uint64, maxBytes int) ([][]byte, uint64, error)
	// WaitWAL parks until the position exceeds from, a timeout, or close.
	WaitWAL(from uint64, timeout time.Duration) bool
	// ReadCheckpoint returns the newest checkpoint's bytes and position.
	ReadCheckpoint() ([]byte, uint64, error)
	// Term returns the promotion (fencing) term; TermStart the position
	// where it began — the divergence boundary for rejoining nodes.
	Term() uint64
	TermStart() uint64
	// BootstrapCheckpoint cuts and returns a fresh checkpoint, for wiping a
	// diverged follower.
	BootstrapCheckpoint() ([]byte, uint64, error)
}

var _ WALSource = (*durable.Engine)(nil)

// follower is one connected replication stream, tracked by the primary for
// lag reporting.
type follower struct {
	addr  string
	acked atomic.Uint64
}

// handleReplicaSubscribe serves one replication stream, blocking until the
// follower disconnects or the log becomes unreadable. It owns the
// connection: batches and heartbeats flow out from this goroutine while a
// helper goroutine drains the follower's position acknowledgements.
func (s *CloudService) handleReplicaSubscribe(pc *protocol.Conn, remote string, req *protocol.ReplicaSubscribeRequest) {
	wal := s.WAL
	if wal == nil {
		pc.Send(errMsg(fmt.Errorf("cloud: this server has no write-ahead log to replicate (start it with -data)")))
		return
	}
	term, termStart := wal.Term(), wal.TermStart()
	if req.Term > term {
		// The subscriber has seen a newer promotion than we have: we are the
		// stale side of a failover. Fence ourselves and tell it so.
		s.fence(req.Term)
		pc.Send(errMsgCode(protocol.CodeStaleTerm, fmt.Errorf("cloud: this server is at term %d, below the follower's %d — it is not the primary anymore", term, req.Term)))
		return
	}
	from := req.From
	pos := wal.Position()

	resp := &protocol.ReplicaSubscribeResponse{Position: pos, Term: term, TermStart: termStart}
	var snapshot []byte
	switch {
	case req.Bootstrap:
		// The follower asked for a wholesale reset (it was bounced with
		// CodeDiverged, or wants to discard its history).
		data, lsn, err := wal.BootstrapCheckpoint()
		if err != nil {
			pc.Send(errMsg(fmt.Errorf("cloud: cutting bootstrap checkpoint: %w", err)))
			return
		}
		snapshot = data
		resp.SnapshotLSN = lsn
		resp.SnapshotSize = len(data)
		from = lsn
	case req.Term < term && from > termStart:
		// The follower's log extends past the point where our term began, on
		// an older term: the tail beyond termStart was written by a deposed
		// primary and is not part of this history. Replaying records cannot
		// reconcile that — the follower must bootstrap.
		pc.Send(errMsgCode(protocol.CodeDiverged, fmt.Errorf("cloud: follower position %d is past term %d's start %d on an older term — its log has diverged; re-subscribe with bootstrap", from, term, termStart)))
		return
	case from > pos:
		pc.Send(errMsgCode(protocol.CodeDiverged, fmt.Errorf("cloud: follower position %d is ahead of primary position %d — diverged history; re-subscribe with bootstrap", from, pos)))
		return
	case from < wal.OldestRetained():
		// The follower's position predates the retained log: ship the newest
		// checkpoint first and stream from its position instead.
		data, lsn, err := wal.ReadCheckpoint()
		if err != nil {
			pc.Send(errMsg(fmt.Errorf("cloud: follower needs bootstrap but checkpoint is unavailable: %w", err)))
			return
		}
		snapshot = data
		resp.SnapshotLSN = lsn
		resp.SnapshotSize = len(data)
		from = lsn
	}
	if err := pc.Send(&protocol.Message{ReplicaSubscribeResp: resp}); err != nil {
		return
	}
	for off := 0; off < len(snapshot); off += snapshotChunkBytes {
		end := min(off+snapshotChunkBytes, len(snapshot))
		chunk := &protocol.ReplicaSnapshotChunk{Data: snapshot[off:end], Last: end == len(snapshot)}
		if err := pc.Send(&protocol.Message{ReplicaSnapshot: chunk}); err != nil {
			return
		}
	}
	logf(s.Logger, "cloud: replica %s subscribed from position %d (snapshot: %d bytes)", remote, from, len(snapshot))

	f := &follower{addr: remote}
	f.acked.Store(from)
	s.addFollower(f)
	defer s.removeFollower(f)

	// The ack reader owns the connection's receive side for the stream's
	// lifetime; `done` closing means the follower hung up.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := pc.Recv()
			if err != nil {
				return
			}
			if m.ReplicaAck != nil {
				if t := m.ReplicaAck.Term; t > wal.Term() {
					// The follower has moved to a newer term than ours — a
					// promotion happened behind our back. We are a zombie:
					// fence and drop the stream.
					s.fence(t)
					return
				}
				f.acked.Store(m.ReplicaAck.Position)
			}
		}
	}()

	hb := s.heartbeatEvery()
	for {
		select {
		case <-done:
			logf(s.Logger, "cloud: replica %s disconnected at position %d", remote, f.acked.Load())
			return
		default:
		}
		records, next, err := wal.ReadWAL(from, replicaBatchBytes)
		if err != nil {
			// Includes durable.ErrTruncatedHistory when a checkpoint pruned
			// the records mid-stream: the follower reconnects and bootstraps.
			pc.Send(errMsg(fmt.Errorf("cloud: replication stream: %w", err)))
			return
		}
		if len(records) == 0 {
			if !wal.WaitWAL(from, hb) {
				// Idle past the heartbeat interval: prove liveness and ship
				// the current position so the follower can measure lag.
				beat := &protocol.ReplicaRecordBatch{From: from, Position: wal.Position(), Term: wal.Term()}
				if err := pc.Send(&protocol.Message{ReplicaRecords: beat}); err != nil {
					return
				}
			}
			continue
		}
		batch := &protocol.ReplicaRecordBatch{From: from, Records: records, Position: wal.Position(), Term: wal.Term()}
		if err := pc.Send(&protocol.Message{ReplicaRecords: batch}); err != nil {
			return
		}
		from = next
	}
}

// heartbeatEvery returns the stream's idle heartbeat interval.
func (s *CloudService) heartbeatEvery() time.Duration {
	if s.HeartbeatEvery > 0 {
		return s.HeartbeatEvery
	}
	return 500 * time.Millisecond
}

func (s *CloudService) addFollower(f *follower) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.followers == nil {
		s.followers = make(map[*follower]struct{})
	}
	s.followers[f] = struct{}{}
}

func (s *CloudService) removeFollower(f *follower) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	delete(s.followers, f)
}

// ReplicaStatus is a point-in-time view of a follower's replication stream.
type ReplicaStatus struct {
	// Position is the follower's own applied (and logged) position.
	Position uint64
	// PrimaryPosition is the newest primary position heard on the stream;
	// PrimaryPosition - Position is the follower's lag in records.
	PrimaryPosition uint64
	// Connected reports whether the stream is currently established.
	Connected bool
	// LastError is the most recent stream failure, nil after a healthy
	// (re)connect.
	LastError error
}

// Replica streams a primary's write-ahead log into a local durable engine.
// Start it with StartReplica; it bootstraps from the primary's newest
// checkpoint when needed, applies records through the engine (so they are
// locally durable before they are acknowledged), sends position acks, and
// reconnects with backoff on any failure — resuming from the engine's
// recovered position, which is what makes a follower crash mid-catch-up
// safe to restart.
type Replica struct {
	eng     *durable.Engine
	primary string
	logger  *slog.Logger

	mu         sync.Mutex
	primaryPos uint64
	connected  bool
	lastErr    error
	conn       net.Conn
	closed     bool
	// needBootstrap is set after the primary bounced a subscribe with
	// CodeDiverged: our log tail was written by a deposed primary and must
	// be discarded. The next subscribe requests a wholesale reset.
	needBootstrap bool

	done chan struct{}
	wg   sync.WaitGroup
}

// Primary returns the address this replica streams from.
func (r *Replica) Primary() string { return r.primary }

// StartReplica begins replicating primaryAddr's log into eng and returns
// immediately; the stream (re)connects in the background. The engine must
// use the same scheme parameters as the primary. Mutations must not be fed
// to eng from anywhere else while the replica runs.
func StartReplica(eng *durable.Engine, primaryAddr string, logger *slog.Logger) *Replica {
	r := &Replica{
		eng:     eng,
		primary: primaryAddr,
		logger:  logger,
		done:    make(chan struct{}),
	}
	r.wg.Add(1)
	go r.run()
	return r
}

// Status returns the replica's current positions and stream health.
func (r *Replica) Status() ReplicaStatus {
	pos := r.eng.Position()
	r.mu.Lock()
	defer r.mu.Unlock()
	pp := r.primaryPos
	if pp < pos {
		pp = pos
	}
	return ReplicaStatus{Position: pos, PrimaryPosition: pp, Connected: r.connected, LastError: r.lastErr}
}

// Close stops the stream and waits for it to wind down. The engine is left
// open — closing it is the caller's job, after Close returns.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	close(r.done)
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
	return nil
}

// run is the reconnect loop.
func (r *Replica) run() {
	defer r.wg.Done()
	backoff := replicaRetryMin
	for {
		select {
		case <-r.done:
			return
		default:
		}
		start := time.Now()
		err := r.stream()
		r.mu.Lock()
		r.connected = false
		if err != nil && !r.closed {
			r.lastErr = err
		}
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return
		}
		if err != nil {
			logf(r.logger, "replica: stream from %s: %v", r.primary, err)
		}
		// A stream that lived a while earns a fresh backoff.
		if time.Since(start) > replicaRetryMax {
			backoff = replicaRetryMin
		}
		select {
		case <-r.done:
			return
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, replicaRetryMax)
	}
}

// stream runs one subscription until it fails.
func (r *Replica) stream() error {
	conn, err := net.DialTimeout("tcp", r.primary, DialTimeout)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return nil
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		conn.Close()
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
	}()

	pc := protocol.NewConn(conn)
	from := r.eng.Position()
	r.mu.Lock()
	boot := r.needBootstrap
	r.mu.Unlock()
	sub := &protocol.ReplicaSubscribeRequest{From: from, Term: r.eng.Term(), Bootstrap: boot}
	if err := pc.Send(&protocol.Message{ReplicaSubscribeReq: sub}); err != nil {
		return err
	}
	m, err := pc.Recv()
	if err != nil {
		return err
	}
	if m.Error != nil {
		if m.Error.Code == protocol.CodeDiverged {
			// Our log holds records the primary's history does not share.
			// Ask for a wholesale reset on the next attempt.
			r.mu.Lock()
			r.needBootstrap = true
			r.mu.Unlock()
			return fmt.Errorf("primary rejected subscription (diverged log; will bootstrap): %s", m.Error.Text)
		}
		return fmt.Errorf("primary rejected subscription: %s", m.Error.Text)
	}
	resp := m.ReplicaSubscribeResp
	if resp == nil {
		return errors.New("primary sent no subscribe response")
	}
	if ours := r.eng.Term(); resp.Term < ours {
		// A primary on an older term is a resurrected zombie: never apply
		// its records. (It learns of its staleness from our subscribe term;
		// keep retrying until it is fenced or we are reconfigured.)
		return fmt.Errorf("primary is at stale term %d (ours is %d); refusing its stream", resp.Term, ours)
	}

	if resp.SnapshotSize > 0 {
		data := make([]byte, 0, resp.SnapshotSize)
		for {
			cm, err := pc.Recv()
			if err != nil {
				return fmt.Errorf("receiving bootstrap snapshot: %w", err)
			}
			chunk := cm.ReplicaSnapshot
			if chunk == nil {
				return errors.New("primary interrupted the bootstrap snapshot")
			}
			data = append(data, chunk.Data...)
			if chunk.Last {
				break
			}
		}
		if len(data) != resp.SnapshotSize {
			return fmt.Errorf("bootstrap snapshot is %d bytes, primary announced %d", len(data), resp.SnapshotSize)
		}
		if err := r.eng.ResetToCheckpoint(data, resp.SnapshotLSN); err != nil {
			return err
		}
		r.mu.Lock()
		r.needBootstrap = false
		r.mu.Unlock()
		logf(r.logger, "replica: bootstrapped from primary checkpoint at position %d", resp.SnapshotLSN)
	}

	r.mu.Lock()
	if resp.Position > r.primaryPos {
		r.primaryPos = resp.Position
	}
	r.connected = true
	r.lastErr = nil
	r.mu.Unlock()

	for {
		m, err := pc.Recv()
		if err != nil {
			return err
		}
		if m.Error != nil {
			return fmt.Errorf("primary closed the stream: %s", m.Error.Text)
		}
		batch := m.ReplicaRecords
		if batch == nil {
			return errors.New("unexpected message on replication stream")
		}
		if batch.Term != 0 && batch.Term < r.eng.Term() {
			return fmt.Errorf("stream fell to stale term %d (ours is %d); dropping it", batch.Term, r.eng.Term())
		}
		pos := r.eng.Position()
		records := batch.Records
		switch {
		case batch.From > pos:
			return fmt.Errorf("replication gap: primary streamed from %d, follower is at %d", batch.From, pos)
		case batch.From < pos:
			// Overlap after a reconnect race: the records up to our position
			// are already logged and applied.
			skip := pos - batch.From
			if skip >= uint64(len(records)) {
				records = nil
			} else {
				records = records[skip:]
			}
		}
		for _, rec := range records {
			if err := r.eng.ApplyReplicated(rec); err != nil {
				return fmt.Errorf("applying replicated record: %w", err)
			}
		}
		r.mu.Lock()
		if batch.Position > r.primaryPos {
			r.primaryPos = batch.Position
		}
		r.mu.Unlock()
		if err := pc.Send(&protocol.Message{ReplicaAck: &protocol.ReplicaAckMsg{Position: r.eng.Position(), Term: r.eng.Term()}}); err != nil {
			return err
		}
	}
}
