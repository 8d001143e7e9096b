// Package durable is the cloud server's storage engine: an append-only
// write-ahead log (WAL) of upload/delete mutations plus periodic materialized
// checkpoints, giving the daemon crash recovery with bounded data loss
// instead of the seed's exit-time-only snapshot.
//
// # Data directory layout
//
// An engine owns a directory holding two kinds of files, both named by LSN —
// the log sequence number, a count of mutations since the directory was
// created:
//
//	wal-<lsn>.log         log segment whose first record is mutation <lsn>
//	checkpoint-<lsn>.ckpt store.SaveCheckpoint snapshot covering mutations [0, lsn)
//
// Every record the engine logs — a local upload or delete, a term bump, a
// replicated record — is validated by its caller and then goes through one
// commit routine (commitLocked): appended to the live segment, fsynced per
// FsyncPolicy (term records always), and only then applied to the in-memory
// core.Server — so the log is always at least as new as the state it
// reconstructs. A record is in memory, Position and what ReadWAL serves
// together or in none of them: a failed write is rolled back, and a failed
// fsync rolls back the record in flight and refuses every later mutation,
// since what the segment holds on disk is then unknown.
//
// A checkpoint cuts the log at the current LSN: the mutation stream is
// paused only while the server's state is materialized in memory and the
// segment rotated (searches keep running throughout; the pause is reported in
// Stats), then the snapshot is serialized and atomically renamed into place
// while uploads and deletes continue into the fresh segment, and obsolete
// files are removed. Every segment, on open, on rotation and on a reset,
// starts as an empty file through one helper (startSegmentLocked).
//
// # Recovery
//
// Open loads the newest readable checkpoint and replays the log from its
// LSN, record by record, until the log ends or a record fails to decode. A
// torn final record — the expected residue of a crash mid-append — is
// truncated away and the engine resumes appending after it; a corrupt record
// with valid records behind it (bit rot, not tearing) aborts recovery, since
// silently skipping mutations would fork the state from the log. For any
// crash point, the recovered server's search output is byte-identical to a
// server that applied exactly the surviving prefix of mutations.
//
// ResetToCheckpoint replaces the whole history with a checkpoint shipped
// from a primary. It first removes the replaced history at or past the
// shipped position (newer checkpoints, segments from that position on), then
// installs the shipped checkpoint, then starts an empty segment and removes
// the older files, so a crash inside the reset recovers either a prefix of
// the replaced history or the shipped checkpoint.
package durable

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mkse/internal/core"
	"mkse/internal/store"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// FsyncPolicy says when the engine forces logged records to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs the log before every mutation is acknowledged: no
	// acknowledged write is ever lost, at the price of a disk round trip
	// per mutation.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background tick (Options.FsyncEvery,
	// default 100ms): a crash loses at most the last interval.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system: fastest, and a
	// process crash (as opposed to a power cut) still loses nothing once
	// the engine's buffer is flushed.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values onto policies.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or never)", s)
}

// String returns the policy's -fsync flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// Options tunes an engine. The zero value is usable: default shard layout,
// fsync on every mutation, no automatic checkpoints.
type Options struct {
	// Shards and Workers set the recovered server's layout, as in
	// core.NewServerSharded (<= 0 picks the defaults).
	Shards, Workers int
	// Fsync is the log sync policy.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period; 0 means 100ms.
	FsyncEvery time.Duration
	// CheckpointEvery triggers a background checkpoint after that many
	// mutations since the last one; 0 checkpoints only on Close or by
	// explicit Checkpoint calls.
	CheckpointEvery int
	// Logger, if set, receives recovery and checkpoint notices.
	Logger *slog.Logger
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	LSN           uint64 // mutations logged over the directory's lifetime
	CheckpointLSN uint64 // LSN covered by the newest durable checkpoint
	Checkpoints   int    // checkpoints taken by this engine instance
	Term          uint64 // promotion (fencing) term; see SetTerm

	// CheckpointsFailed counts checkpoints by this engine instance that
	// returned an error, leaving the log uncut.
	CheckpointsFailed int

	// LastCheckpointPause is how long the last checkpoint blocked the
	// mutation stream (state materialization + segment rotation); searches
	// are never blocked. LastCheckpointWrite is the full serialization
	// time, which overlaps normal service.
	LastCheckpointPause time.Duration
	LastCheckpointWrite time.Duration

	// Replay footprint of Open: records applied, bytes decoded, wall time.
	ReplayedOps   int
	ReplayedBytes int64
	ReplayTime    time.Duration

	WALBytes int64 // bytes appended to the log by this engine instance
}

// ErrClosed reports a mutation against a closed engine.
var ErrClosed = errors.New("durable: engine is closed")

// Engine couples a core.Server with its write-ahead log and checkpointer.
// Route every mutation through the engine (Upload, Delete); reads — Search,
// SearchBatch, Fetch — go straight to Server(), which stays safe for
// concurrent use.
type Engine struct {
	dir  string
	opts Options
	srv  *core.Server

	// mu serializes mutations and checkpoint cuts, fixing one global order
	// that the log, the in-memory state and any replay all share.
	mu           sync.Mutex
	f            *os.File // live segment
	lsn          uint64
	term         uint64 // promotion (fencing) term; raised by SetTerm / replicated term records
	termStart    uint64 // log position where term began (the term record's position)
	segStart     uint64
	segSize      int64 // bytes of complete records in the live segment
	opsSinceCkpt int
	dirty        bool // bytes written since the last sync
	closing      bool
	broken       bool   // a failed append could not be rolled back
	buf          []byte // op staging buffer
	frame        []byte // framed-record staging buffer
	stats        Stats
	notify       chan struct{} // closed and replaced on every append (see WaitWAL)

	ckptMu sync.Mutex // serializes whole checkpoints

	ckptCh chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	// metrics holds the append/fsync/checkpoint latency instruments, all nil
	// (and so off) until EnableMetrics swaps in registered ones. An atomic
	// pointer so EnableMetrics can run after Open without racing the
	// mutation path.
	metrics atomic.Pointer[engineMetrics]
	// tracer, when set by SetTracer, records checkpoint traces and sampled
	// replication-apply traces into the daemon's trace buffer; request-path
	// WAL spans (wal.append, wal.fsync) instead follow the request's own
	// context and need no tracer here.
	tracer atomic.Pointer[trace.Tracer]
	// openedAt anchors the checkpoint-age gauge until the first checkpoint;
	// lastCkptAt (under mu) is when the newest checkpoint landed.
	openedAt   time.Time
	lastCkptAt time.Time
}

// engineMetrics are the engine's hot-path latency instruments. The
// counters and gauges the engine already tracks in Stats are exported as
// scrape-time functions instead (see EnableMetrics).
type engineMetrics struct {
	appendLat *telemetry.Histogram // mkse_wal_append_seconds
	fsyncLat  *telemetry.Histogram // mkse_wal_fsync_seconds
	ckptDur   *telemetry.Histogram // mkse_checkpoint_duration_seconds
	ckptPause *telemetry.Histogram // mkse_checkpoint_pause_seconds
}

// EnableMetrics registers the engine's series on reg and starts observing:
// WAL append and fsync latency (WriteBuckets geometry), whole-checkpoint
// duration and mutation-stream pause, plus scrape-time readings of the
// Stats counters — checkpoint LSN and age, checkpoints taken, WAL bytes
// appended. Safe to call while the engine is serving.
func (e *Engine) EnableMetrics(reg *telemetry.Registry) {
	m := &engineMetrics{
		appendLat: reg.Histogram("mkse_wal_append_seconds",
			"WAL record append latency (framing + write + policy fsync).", telemetry.WriteBuckets()),
		fsyncLat: reg.Histogram("mkse_wal_fsync_seconds",
			"WAL fsync latency.", telemetry.WriteBuckets()),
		ckptDur: reg.Histogram("mkse_checkpoint_duration_seconds",
			"Whole-checkpoint duration: materialize, rotate, serialize, install.", telemetry.RequestBuckets()),
		ckptPause: reg.Histogram("mkse_checkpoint_pause_seconds",
			"Mutation-stream pause during a checkpoint cut (searches never pause).", telemetry.RequestBuckets()),
	}
	reg.GaugeFunc("mkse_checkpoint_lsn", "LSN covered by the newest durable checkpoint.",
		func() float64 { return float64(e.Stats().CheckpointLSN) })
	reg.GaugeFunc("mkse_checkpoint_age_seconds",
		"Seconds since the newest checkpoint landed (since Open when none has).",
		func() float64 { return time.Since(e.checkpointAnchor()).Seconds() })
	reg.CounterFunc("mkse_checkpoints_total", "Checkpoints taken by this engine instance.",
		func() float64 { return float64(e.Stats().Checkpoints) })
	reg.CounterFunc("mkse_checkpoints_failed_total", "Checkpoints by this engine instance that failed, leaving the log uncut.",
		func() float64 { return float64(e.Stats().CheckpointsFailed) })
	reg.CounterFunc("mkse_wal_appended_bytes_total", "Bytes appended to the WAL by this engine instance.",
		func() float64 { return float64(e.Stats().WALBytes) })
	e.metrics.Store(m)
}

// SetTracer points the engine's background tracing at t: every checkpoint
// records a trace (root span plus the mutation-stream pause as a child),
// and replication applies record head-sampled single-span traces. A nil t
// disables both. Safe to call while the engine is serving.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer.Store(t) }

// checkpointAnchor returns the newest checkpoint's completion time, or when
// the engine opened if it has not checkpointed yet.
func (e *Engine) checkpointAnchor() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastCkptAt.IsZero() {
		return e.openedAt
	}
	return e.lastCkptAt
}

// Open recovers (or creates) an engine over dir. A directory that does not
// exist yet is created and yields an empty server with parameters p; an
// existing directory is recovered from its newest checkpoint plus log tail,
// using the parameters persisted there (p is ignored then, like the legacy
// snapshot path — the log already encodes indices of the on-disk geometry).
func Open(dir string, p core.Params, opts Options) (*Engine, error) {
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	removeTemps(dir)
	ckpts, segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		dir:      dir,
		opts:     opts,
		ckptCh:   make(chan struct{}, 1),
		done:     make(chan struct{}),
		notify:   make(chan struct{}),
		openedAt: time.Now(),
	}
	e.metrics.Store(&engineMetrics{})
	mk := func(p core.Params) (*core.Server, error) {
		return core.NewServerSharded(p, opts.Shards, opts.Workers)
	}

	// Newest readable checkpoint wins; fall back past corrupt ones (a crash
	// cannot produce them — the rename is atomic — but bit rot can).
	for i := len(ckpts) - 1; i >= 0; i-- {
		srv, meta, err := store.LoadCheckpointFile(filepath.Join(dir, ckptName(ckpts[i])), mk)
		if err != nil {
			logf(opts.Logger, "durable: checkpoint %s unreadable, trying older: %v", ckptName(ckpts[i]), err)
			continue
		}
		if meta.LSN != ckpts[i] {
			return nil, fmt.Errorf("durable: checkpoint %s covers LSN %d", ckptName(ckpts[i]), meta.LSN)
		}
		e.srv, e.lsn = srv, meta.LSN
		e.term, e.termStart = meta.Term, meta.TermStart
		break
	}
	if e.srv == nil {
		if len(ckpts) > 0 {
			return nil, fmt.Errorf("durable: no readable checkpoint among %d in %s", len(ckpts), dir)
		}
		if e.srv, err = mk(p); err != nil {
			return nil, err
		}
	}
	e.stats.CheckpointLSN = e.lsn

	if err := e.replay(segs); err != nil {
		return nil, err
	}
	if err := e.openSegment(segs); err != nil {
		return nil, err
	}
	e.cleanup()

	e.wg.Add(1)
	go e.checkpointLoop()
	if opts.Fsync == FsyncInterval {
		e.wg.Add(1)
		go e.flushLoop()
	}
	return e, nil
}

// Server exposes the recovered server for reads. Mutations must go through
// the engine.
func (e *Engine) Server() *core.Server { return e.srv }

// Dir returns the engine's data directory.
func (e *Engine) Dir() string { return e.dir }

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Term = e.term
	return st
}

// Term returns the engine's promotion (fencing) term: a monotonically
// increasing epoch raised by SetTerm on a promotion and learned by followers
// through replicated term records and checkpoints. Replication streams from
// a lower term are stale — they come from a primary that was failed over —
// and are rejected rather than applied.
func (e *Engine) Term() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.term
}

// TermStart returns the log position where the current term began: the
// position of the term-bump control record, or 0 for the initial term. A
// node whose position exceeds another history's TermStart holds records that
// history does not share, and must bootstrap from a checkpoint to rejoin it.
func (e *Engine) TermStart() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.termStart
}

// ErrStaleTerm reports an attempt to move the engine to a term at or below
// one it has already seen — the signature of a failed-over primary trying to
// act on an old claim to leadership.
var ErrStaleTerm = errors.New("durable: stale promotion term")

// SetTerm raises the engine's promotion term, durably: the bump is logged as
// a control record (occupying one log position, so it replicates to
// followers like any mutation) before the in-memory term changes. Raising to
// the current term is a no-op — promote retries must be idempotent — and a
// lower term returns ErrStaleTerm.
func (e *Engine) SetTerm(term uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if term < e.term {
		return fmt.Errorf("%w: have term %d, refused %d", ErrStaleTerm, e.term, term)
	}
	if term == e.term {
		return nil
	}
	e.buf = appendTermOp(e.buf[:0], term)
	return e.commitLocked(context.Background(), e.buf, &walOp{kind: opTerm, term: term})
}

// Upload durably stores one document: the mutation is logged (and synced,
// per policy) before it is applied to the server, so a crash straight after
// Upload returns cannot lose it under FsyncAlways. Re-uploading an existing
// ID logs and applies a replacement, as in core.Server.Upload.
func (e *Engine) Upload(si *core.SearchIndex, doc *core.EncryptedDocument) error {
	return e.UploadCtx(context.Background(), si, doc)
}

// UploadCtx is Upload with a request context: a traced request's context
// hangs the WAL append and fsync spans under the request. ctx does not
// cancel the mutation.
func (e *Engine) UploadCtx(ctx context.Context, si *core.SearchIndex, doc *core.EncryptedDocument) error {
	if si == nil || doc == nil {
		return fmt.Errorf("core: nil upload")
	}
	if err := si.Validate(e.srv.Params()); err != nil {
		return err
	}
	if doc.ID != si.DocID {
		return fmt.Errorf("core: index is for %q but document is %q", si.DocID, doc.ID)
	}
	levels := make([][]byte, len(si.Levels))
	for i, l := range si.Levels {
		enc, err := l.MarshalBinary()
		if err != nil {
			return err
		}
		levels[i] = enc
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.buf = appendUploadOp(e.buf[:0], si.DocID, levels, doc.Ciphertext, doc.EncKey)
	return e.commitLocked(ctx, e.buf, &walOp{kind: opUpload, docID: si.DocID, si: si, doc: doc})
}

// Delete durably removes one document; deleting an unknown ID returns
// core.ErrNotFound without touching the log.
func (e *Engine) Delete(docID string) error {
	return e.DeleteCtx(context.Background(), docID)
}

// DeleteCtx is Delete with a request context (see UploadCtx).
func (e *Engine) DeleteCtx(ctx context.Context, docID string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closing {
		return ErrClosed
	}
	if _, err := e.srv.Fetch(docID); err != nil {
		return err
	}
	e.buf = appendDeleteOp(e.buf[:0], docID)
	return e.commitLocked(ctx, e.buf, &walOp{kind: opDelete, docID: docID})
}

// errUnknownState refuses every mutation once the log may disagree with
// memory: an fsync failed, or a failed append could not be rolled back.
var errUnknownState = errors.New("durable: log is in an unknown state after an unrecoverable append or fsync failure")

// commitLocked is the one path by which a record enters the log: it appends
// rec at position e.lsn, syncs it per policy (term records always), applies
// op — rec's decoded form — to memory, publishes the new position to WAL
// tailers and counts the record toward the checkpoint trigger. Caller holds
// e.mu and has validated op, so that applying it cannot fail: only such
// mutations may reach the log, otherwise replay would diverge from the live
// state. On any failure the record is in none of memory, Position and
// ReadWAL. ctx only feeds tracing: on a sampled request the append (and any
// fsync, separately) becomes a span.
func (e *Engine) commitLocked(ctx context.Context, rec []byte, op *walOp) error {
	if e.closing {
		return ErrClosed
	}
	// A term claim must survive a crash whatever the fsync policy: a promoted
	// primary that forgot its term would resurrect as fenceable, and a
	// follower that forgot it would accept a zombie's stream.
	if err := e.logLocked(ctx, rec, op.kind == opTerm); err != nil {
		return err
	}
	if err := e.applyOp(op, e.lsn); err != nil {
		// Unreachable while callers validate. The record may already be on
		// stable storage, where replay would fail on it, so refuse the rest.
		e.broken = true
		return e.rollbackLocked(err)
	}
	e.segSize += int64(len(e.frame))
	e.lsn++
	e.stats.LSN = e.lsn
	e.stats.WALBytes += int64(len(e.frame))
	// Wake WAL tailers (replication streams) blocked in WaitWAL.
	close(e.notify)
	e.notify = make(chan struct{})
	e.opsSinceCkpt++
	if e.opts.CheckpointEvery > 0 && e.opsSinceCkpt >= e.opts.CheckpointEvery {
		select {
		case e.ckptCh <- struct{}{}:
		default: // one is already pending
		}
	}
	return nil
}

// logLocked frames rec and appends it after the live segment's last
// committed record, then syncs if the policy says so or sync is set. On
// failure the segment is rolled back to that record. Caller holds e.mu.
func (e *Engine) logLocked(ctx context.Context, rec []byte, sync bool) error {
	if e.broken {
		return errUnknownState
	}
	if len(rec) > MaxOpSize {
		return fmt.Errorf("durable: %d-byte mutation exceeds the %d-byte limit (documents must stay shippable to replicas in one frame)", len(rec), MaxOpSize)
	}
	sw := trace.StartTimer(ctx, "wal.append", e.metrics.Load().appendLat)
	var err error
	if e.frame, err = AppendRecord(e.frame[:0], rec); err != nil {
		return err
	}
	n, err := e.f.Write(e.frame)
	if n > 0 {
		e.dirty = true
	}
	if err != nil {
		err = fmt.Errorf("durable: appending WAL record: %w", err)
	} else if sync || e.opts.Fsync == FsyncAlways {
		err = e.syncLocked(ctx)
	}
	if err != nil {
		if n > 0 {
			return e.rollbackLocked(err)
		}
		return err
	}
	sw.Stop()
	return nil
}

// rollbackLocked truncates the live segment back to its last committed
// record after the record past it failed, and returns cause. A partial frame
// left behind would read as a torn tail on recovery and silently drop any
// acknowledged records appended after it; if even the truncate fails, all
// further appends are refused rather than risk losing acknowledged data.
func (e *Engine) rollbackLocked(cause error) error {
	if err := e.f.Truncate(e.segSize); err != nil {
		e.broken = true
		return fmt.Errorf("%w; rolling back the segment: %v", cause, err)
	}
	return cause
}

// syncLocked fsyncs the live segment; ctx only feeds tracing, like
// logLocked. Background callers pass context.Background(). A failed fsync
// leaves what the segment holds on disk unknown — the kernel may have dropped
// the dirty pages — so it refuses every later mutation.
func (e *Engine) syncLocked(ctx context.Context) error {
	if !e.dirty {
		return nil
	}
	sw := trace.StartTimer(ctx, "wal.fsync", e.metrics.Load().fsyncLat)
	if err := e.f.Sync(); err != nil {
		e.broken = true
		return fmt.Errorf("durable: syncing WAL: %w", err)
	}
	sw.Stop()
	e.dirty = false
	return nil
}

// Sync forces every logged record to stable storage, whatever the policy.
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syncLocked(context.Background())
}

// memSnapshot is the state captured during a checkpoint cut, serialized
// after the mutation stream resumes. It satisfies store.Exporter.
type memSnapshot struct {
	params core.Params
	items  []snapItem
}

type snapItem struct {
	si  *core.SearchIndex
	doc *core.EncryptedDocument
}

func (s *memSnapshot) Params() core.Params { return s.params }
func (s *memSnapshot) NumDocuments() int   { return len(s.items) }
func (s *memSnapshot) Export(fn func(*core.SearchIndex, *core.EncryptedDocument) error) error {
	for _, it := range s.items {
		if err := fn(it.si, it.doc); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint materializes the server's state, rotates the log, serializes
// the snapshot beside the live directory and atomically installs it, then
// prunes files the new checkpoint obsoletes. Mutations are blocked only
// during materialization and rotation (the reported pause); searches and
// fetches are never blocked, and the serialization overlaps normal service.
// Checkpointing an unchanged engine is a no-op.
func (e *Engine) Checkpoint() error { return e.checkpoint(false) }

// checkpoint implements Checkpoint; force writes a snapshot even when the
// engine is unchanged since the last one (the bootstrap path needs a
// checkpoint file to ship even from a fresh, empty directory).
func (e *Engine) checkpoint(force bool) (err error) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	defer func() {
		if err != nil {
			e.mu.Lock()
			e.stats.CheckpointsFailed++
			e.mu.Unlock()
		}
	}()

	// Checkpoints are rare and always worth inspecting, so every one is
	// recorded (forced, not sampled), with the mutation-stream pause as a
	// child: a pause-induced latency outlier is attributable from /traces.
	ctx, root := e.tracer.Load().StartRequest(context.Background(), "durable.checkpoint", true)
	start := time.Now()
	e.mu.Lock()
	lsn := e.lsn
	meta := store.CheckpointMeta{LSN: lsn, Term: e.term, TermStart: e.termStart}
	if lsn == e.stats.CheckpointLSN && !force {
		e.mu.Unlock()
		return nil
	}
	if e.broken {
		e.mu.Unlock()
		return errUnknownState
	}
	snap := &memSnapshot{params: e.srv.Params()}
	// Export's contract permits retaining (not mutating) its arguments, so
	// the snapshot captures the pointers and serializes after unlock.
	err = e.srv.Export(func(si *core.SearchIndex, doc *core.EncryptedDocument) error {
		snap.items = append(snap.items, snapItem{si: si, doc: doc})
		return nil
	})
	if err == nil && e.segStart != lsn {
		// Skip rotation when the live segment already starts at the cut: a
		// forced re-checkpoint of an unchanged engine would otherwise try to
		// recreate the segment it is writing to.
		err = e.rotateLocked(lsn)
	}
	pause := time.Since(start)
	e.stats.LastCheckpointPause = pause
	e.mu.Unlock()
	if err != nil {
		return err
	}

	wstart := time.Now()
	path := filepath.Join(e.dir, ckptName(lsn))
	if err := store.SaveCheckpointFile(path, snap, meta); err != nil {
		return fmt.Errorf("durable: writing checkpoint: %w", err)
	}
	if err := syncDir(e.dir); err != nil {
		return err
	}

	e.mu.Lock()
	e.stats.CheckpointLSN = lsn
	e.stats.Checkpoints++
	e.stats.LastCheckpointWrite = time.Since(wstart)
	e.lastCkptAt = time.Now()
	e.mu.Unlock()
	m := e.metrics.Load()
	trace.AddCompleted(ctx, "checkpoint.pause", start, pause, m.ckptPause)
	m.ckptDur.Observe(time.Since(start))
	if root != nil {
		root.SetAttr("lsn", strconv.FormatUint(lsn, 10))
		root.SetAttr("documents", strconv.Itoa(len(snap.items)))
	}
	root.End()
	e.cleanup()
	logf(e.opts.Logger, "durable: checkpoint at LSN %d (%d documents, %v pause)", lsn, len(snap.items), pause)
	return nil
}

// rotateLocked finishes the live segment and starts wal-<lsn>.log. Caller
// holds e.mu.
func (e *Engine) rotateLocked(lsn uint64) error {
	if err := e.syncLocked(context.Background()); err != nil {
		return err
	}
	if err := e.startSegmentLocked(lsn); err != nil {
		return err
	}
	e.opsSinceCkpt = 0
	return nil
}

// startSegmentLocked starts wal-<lsn>.log as an empty file — truncating any
// file of that name, which can only hold records of a replaced history — and
// makes it the live segment, closing the previous one. Caller holds e.mu.
func (e *Engine) startSegmentLocked(lsn uint64) error {
	// O_APPEND keeps the write offset glued to EOF, so a rollback truncate
	// cannot leave a hole.
	f, err := os.OpenFile(filepath.Join(e.dir, segName(lsn)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: starting WAL segment: %w", err)
	}
	if err := syncDir(e.dir); err != nil {
		f.Close()
		return err
	}
	if e.f != nil {
		e.f.Close() // synced or abandoned by the caller
	}
	e.f, e.segStart, e.segSize, e.dirty = f, lsn, 0, false
	return nil
}

// checkpointLoop runs automatic checkpoints off the mutation path.
func (e *Engine) checkpointLoop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case <-e.ckptCh:
			if err := e.Checkpoint(); err != nil {
				logf(e.opts.Logger, "durable: background checkpoint: %v", err)
			}
		}
	}
}

// flushLoop services FsyncInterval.
func (e *Engine) flushLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			if err := e.Sync(); err != nil {
				logf(e.opts.Logger, "durable: interval sync: %v", err)
			}
		}
	}
}

// Close stops the background work, takes a final checkpoint (so the next
// Open is replay-free) and closes the log. Further mutations return
// ErrClosed; reads through Server() keep working.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return nil
	}
	e.closing = true
	e.mu.Unlock()
	close(e.done)
	e.wg.Wait()
	err := e.Checkpoint()
	e.mu.Lock()
	defer e.mu.Unlock()
	if serr := e.syncLocked(context.Background()); err == nil {
		err = serr
	}
	if cerr := e.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the engine the way a killed process would: background work
// stops and the log handle is closed without a flush, a sync or a final
// checkpoint. Only what the chosen fsync policy already made durable (plus
// whatever the OS wrote back on its own) survives into the next Open. For
// crash-recovery tests and experiments.
func (e *Engine) Crash() {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return
	}
	e.closing = true
	e.mu.Unlock()
	close(e.done)
	e.wg.Wait()
	e.f.Close()
}

// replay applies the log tail (segments at or past the checkpoint LSN) to
// the freshly loaded server.
func (e *Engine) replay(segs []uint64) error {
	start := time.Now()
	for i, seg := range segs {
		if seg < e.lsn {
			// Fully covered by the checkpoint — its cut always lands on a
			// rotation boundary — so skip it; cleanup prunes it later.
			continue
		}
		if seg > e.lsn {
			return fmt.Errorf("durable: log gap: next segment starts at LSN %d, have %d", seg, e.lsn)
		}
		stop, err := e.replaySegment(filepath.Join(e.dir, segName(seg)), i == len(segs)-1)
		if err != nil {
			return err
		}
		if stop {
			break
		}
	}
	e.stats.ReplayTime = time.Since(start)
	e.stats.LSN = e.lsn
	if e.stats.ReplayedOps > 0 {
		logf(e.opts.Logger, "durable: replayed %d operations (%d bytes) in %v",
			e.stats.ReplayedOps, e.stats.ReplayedBytes, e.stats.ReplayTime)
	}
	return nil
}

// replaySegment applies one segment's records. last marks the directory's
// final segment, the only place a torn record is legitimate: the tail is
// truncated away and replay stops. Returns stop=true when the segment ended
// early.
func (e *Engine) replaySegment(path string, last bool) (stop bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("durable: reading segment: %w", err)
	}
	off := 0
	for off < len(data) {
		payload, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			if !last {
				return false, fmt.Errorf("durable: %s: record at offset %d with later segments present: %w", filepath.Base(path), off, derr)
			}
			logf(e.opts.Logger, "durable: %s: dropping torn tail at offset %d (%v)", filepath.Base(path), off, derr)
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return false, fmt.Errorf("durable: truncating torn tail: %w", terr)
			}
			return true, nil
		}
		op, aerr := decodeOp(payload)
		if aerr == nil {
			aerr = e.applyOp(op, e.lsn)
		}
		if aerr != nil {
			return false, fmt.Errorf("durable: %s: applying record %d: %w", filepath.Base(path), e.lsn, aerr)
		}
		off += n
		e.lsn++
		e.stats.ReplayedOps++
		e.stats.ReplayedBytes += int64(n)
	}
	return false, nil
}

// applyOp applies one mutation to the in-memory server: a replayed record,
// or one the commit routine has just logged. pos is the record's log
// position, which a term record makes the term start.
func (e *Engine) applyOp(op *walOp, pos uint64) error {
	switch op.kind {
	case opDelete:
		if err := e.srv.Delete(op.docID); err != nil && !errors.Is(err, core.ErrNotFound) {
			return err
		}
		return nil
	case opUpload:
		return e.srv.Upload(op.si, op.doc)
	case opTerm:
		// Adopting an equal-or-lower carried term is a no-op, not an error:
		// checkpoints persist the term, so a replayed segment can
		// legitimately carry bumps the checkpoint already covers.
		if op.term > e.term {
			e.term, e.termStart = op.term, pos
		}
		return nil
	}
	return fmt.Errorf("%w: unknown operation kind %d", ErrCorruptRecord, op.kind)
}

// openSegment resumes appending: to the directory's last segment if replay
// consumed it fully, otherwise to a fresh segment at the recovered LSN.
func (e *Engine) openSegment(segs []uint64) error {
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if last <= e.lsn {
			path := filepath.Join(e.dir, segName(last))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err == nil {
				fi, err := f.Stat()
				if err != nil {
					f.Close()
					return fmt.Errorf("durable: sizing WAL segment: %w", err)
				}
				e.f = f
				e.segStart = last
				e.segSize = fi.Size()
				return nil
			}
		}
	}
	return e.startSegmentLocked(e.lsn)
}

// cleanup removes files a durable checkpoint has obsoleted: older
// checkpoints and segments fully below the checkpoint LSN. Open calls it
// before any reader or writer exists, checkpoint under ckptMu. Failures are
// cosmetic (retried on the next cleanup) and ignored.
func (e *Engine) cleanup() {
	e.mu.Lock()
	ckptLSN := e.stats.CheckpointLSN
	segStart := e.segStart
	e.mu.Unlock()
	ckpts, segs, err := scanDir(e.dir)
	if err != nil {
		return
	}
	for _, c := range ckpts {
		if c < ckptLSN {
			os.Remove(filepath.Join(e.dir, ckptName(c)))
		}
	}
	for i, s := range segs {
		// A segment is dead once the checkpoint covers it entirely — its
		// end is the next segment's start — and it is not the live one.
		if s >= segStart {
			continue
		}
		if i+1 < len(segs) && segs[i+1] <= ckptLSN {
			os.Remove(filepath.Join(e.dir, segName(s)))
		}
	}
}

// --- directory plumbing ---

func segName(lsn uint64) string  { return fmt.Sprintf("wal-%016d.log", lsn) }
func ckptName(lsn uint64) string { return fmt.Sprintf("checkpoint-%016d.ckpt", lsn) }

// scanDir lists the directory's checkpoint and segment LSNs, ascending. It
// never removes a file: log readers list the directory while a checkpoint
// writes its file under a temp name. Only Open, and checkpoint and
// ResetToCheckpoint under ckptMu, remove files.
func scanDir(dir string) (ckpts, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: reading data dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if n, ok := parseName(name, "wal-", ".log"); ok {
			segs = append(segs, n)
		} else if n, ok := parseName(name, "checkpoint-", ".ckpt"); ok {
			ckpts = append(ckpts, n)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

// removeTemps deletes the temp files interrupted checkpoint writes left;
// a failure leaves them to the next Open. Only Open calls it, before any
// reader or writer exists.
func removeTemps(dir string) {
	entries, _ := os.ReadDir(dir) // scanDir, next, reports an unreadable directory
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// syncDir fsyncs a directory so renames and creates within it survive a
// power cut.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: syncing data dir: %w", err)
	}
	return nil
}

func logf(l *slog.Logger, format string, args ...any) {
	if l != nil {
		l.Info(fmt.Sprintf(format, args...))
	}
}
