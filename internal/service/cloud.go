package service

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/qcache"
	"mkse/internal/trace"
)

// ResultCache is the query-result cache a cloud daemon may carry: query
// fingerprint → the ranked matches it produced, validated against the
// store's mutation epoch. A hit needs a byte-identical replay of a query
// vector, which a correct client never sends — every query ANDs in a fresh
// random decoy subset (see internal/qcache). Cached match slices are shared
// across responses and must never be mutated.
type ResultCache = qcache.Cache[[]protocol.MatchWire]

// NewResultCache builds a query-result cache bounded to maxBytes (<= 0
// returns the nil disabled cache, which every call site tolerates).
func NewResultCache(maxBytes int64) *ResultCache {
	return qcache.New[[]protocol.MatchWire](maxBytes, 0)
}

// CloudService exposes a core.Server over TCP, answering the requests of
// its verb table (CloudService.verbs): the paper's upload, search and
// fetch, plus delete, stats, cluster info, replication and failover. It
// requires no authentication — the server is semi-honest and queries are
// anonymous ("the user does not provide his identity during the
// communication with the server", Section 7).
type CloudService struct {
	Server *core.Server
	// Store, when set, receives uploads and deletions instead of Server —
	// the hook that puts the durable write-ahead log under the daemon.
	// Reads always go to Server.
	Store *durable.Engine
	// WAL, when set, lets this daemon serve its write-ahead log to
	// followers over the replication verbs (any durably backed daemon can;
	// set it to the same durable engine as Store).
	WAL WALSource
	// Eng, when set, enables the failover verbs (Promote, Reconfigure):
	// promotion needs the concrete durable engine — its term must be raised
	// and a replacement replication stream started against it. Set it to the
	// same engine as Store/WAL.
	Eng *durable.Engine
	// Replica, when set, marks this daemon a read-only follower: uploads
	// and deletions are rejected — its state is fed exclusively by the
	// replication stream — and status replies report the stream's lag. Set
	// it before Serve; afterwards the Promote and Reconfigure verbs mutate
	// it under the service's lock (use replica() to read it).
	Replica *Replica
	// IdleTimeout, when non-zero, bounds how long a connection may sit
	// between requests before it is dropped (replication streams, which own
	// their connection, are exempt).
	IdleTimeout time.Duration
	// Cache, when set, memoizes search results keyed by query
	// fingerprint and validated against Server's mutation epoch — repeated
	// queries skip the arena scan entirely. A nil Cache disables caching.
	// Works unchanged on followers: entries key off the follower's own
	// epoch, so replicated applies invalidate them like local mutations.
	Cache *ResultCache
	// HeartbeatEvery is the idle heartbeat interval of outgoing replication
	// streams (0 = 500ms).
	HeartbeatEvery time.Duration
	// Metrics, when set (EnableMetrics), receives per-verb request counts,
	// latency histograms and the in-flight gauge for every request this
	// service handles. A nil Metrics costs the hot path one nil check.
	Metrics *ServiceMetrics
	// SlowQuery, when non-zero, logs any search (a batch is one) that takes
	// longer than the threshold at WARN level with verb/duration/remote
	// fields — the always-on tail-latency tripwire. The same threshold
	// governs /traces/slow retention (set the trace buffer's threshold to
	// this value), so logs and traces agree on what "slow" means.
	SlowQuery time.Duration
	// Tracer, when set (EnableTracing), samples requests into distributed
	// traces: an incoming sampled trace context is continued as a child of
	// the sender's span, other requests are head-sampled 1 in N, and
	// searches that cross SlowQuery without being sampled are still
	// captured as single-span traces. A nil Tracer disables tracing.
	Tracer *trace.Tracer
	// Partition and Partitions give the daemon its static cluster identity
	// (-partition i/P): this server owns the documents the doc-ID hash map
	// assigns to index Partition out of Partitions. With Partitions > 1 the
	// server enforces the map — uploads and deletions for documents another
	// partition owns are rejected with CodeWrongPartition, so a misconfigured
	// coordinator cannot fork the corpus. Partitions 0 means the daemon is
	// not part of a cluster.
	Partition  int
	Partitions int
	Logger     *slog.Logger // optional

	replMu    sync.Mutex // guards followers, Replica (post-Serve) and demoted
	followers map[*follower]struct{}
	// demoted marks a fenced ex-primary: a peer presented a higher promotion
	// term, so this daemon stops accepting writes until a Reconfigure or
	// Promote puts it back into a defined role.
	demoted bool

	// failMu serializes the failover verbs (Promote, Reconfigure) so an
	// observer retry cannot interleave with a promotion in flight.
	failMu sync.Mutex

	tracker connTracker
}

// replica returns the daemon's current follower stream, if any. Handlers
// must use this accessor rather than the field: Promote and Reconfigure
// swap the field at runtime.
func (s *CloudService) replica() *Replica {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.Replica
}

// CurrentReplica returns the daemon's follower stream, if any, reflecting
// runtime role changes — after a Promote the construction-time Replica
// field is stale. Shutdown paths should close what this returns.
func (s *CloudService) CurrentReplica() *Replica {
	return s.replica()
}

// isDemoted reports whether this daemon has been fenced (see demoted).
func (s *CloudService) isDemoted() bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.demoted
}

// fence demotes this daemon to read-only after a peer presented peerTerm,
// above our own: some follower was promoted while we were isolated, and
// accepting further writes would fork the history.
func (s *CloudService) fence(peerTerm uint64) {
	s.replMu.Lock()
	already := s.demoted
	s.demoted = true
	s.replMu.Unlock()
	if !already {
		logf(s.Logger, "cloud: fenced: a peer is at promotion term %d, above ours — this server was failed over; demoting to read-only", peerTerm)
	}
}

// Drain gracefully winds the service down after its listener has been
// closed: it waits up to timeout for in-flight connections to finish, then
// force-closes the rest. The storage engine is untouched — closing it is
// the caller's job, after Drain returns.
func (s *CloudService) Drain(timeout time.Duration) {
	if cut := s.tracker.drain(timeout); cut > 0 {
		logf(s.Logger, "cloud: drain window elapsed, cut %d connection(s)", cut)
	}
}

// Serve accepts connections on l until it is closed. Every request flows
// through the request seam (requestSeam.serve) with this service's verb
// table, Tracer, Metrics, Logger and SlowQuery, read once here: set them
// before Serve.
func (s *CloudService) Serve(l net.Listener) error {
	rs := &requestSeam{
		role: "server", verbs: s.verbs(),
		tracer: s.Tracer, metrics: s.Metrics, logger: s.Logger,
		slow: s.SlowQuery, documents: s.Server.NumDocuments, spanRemote: true,
	}
	return serveLoop(l, s.Logger, s.IdleTimeout, &s.tracker, rs.serve)
}

// verbs is the cloud daemon's verb table, one row per request it answers
// (see verb). The handlers' ctx carries the request's trace
// (context.Background() when unsampled) into the spans they record: search
// scans, qcache lookups, WAL appends.
func (s *CloudService) verbs() []verb {
	return []verb{
		{name: "upload", has: func(m *protocol.Message) bool { return m.UploadReq != nil },
			serve: func(ctx context.Context, c call) *protocol.Message { return s.handleUpload(ctx, c.UploadReq) }},
		{name: "delete", has: func(m *protocol.Message) bool { return m.DeleteReq != nil },
			serve: func(ctx context.Context, c call) *protocol.Message { return s.handleDelete(ctx, c.DeleteReq) }},
		// Both search frames count as "search": a single search is a batch of one.
		{name: "search", has: func(m *protocol.Message) bool { return m.SearchReq != nil }, slowQuery: true,
			serve: func(ctx context.Context, c call) *protocol.Message {
				resp, err := s.searchOne(ctx, c.SearchReq)
				return s.searchReply(&protocol.Message{SearchResp: resp}, err)
			}},
		{name: "search", has: func(m *protocol.Message) bool { return m.SearchBatchReq != nil }, slowQuery: true,
			serve: func(ctx context.Context, c call) *protocol.Message {
				if n := len(c.SearchBatchReq.Queries); n > protocol.MaxBatchQueries {
					return errMsgCode(protocol.CodeBatchTooLarge, fmt.Errorf("cloud: batch of %d queries exceeds the limit of %d", n, protocol.MaxBatchQueries))
				}
				resp, err := s.SearchBatchWire(ctx, c.SearchBatchReq)
				return s.searchReply(&protocol.Message{SearchBatchResp: resp}, err)
			}},
		{name: "fetch", has: func(m *protocol.Message) bool { return m.FetchReq != nil },
			serve: func(_ context.Context, c call) *protocol.Message { return s.handleFetch(c.FetchReq) }},
		{name: "stats", has: func(m *protocol.Message) bool { return m.StatsReq != nil },
			serve: func(context.Context, call) *protocol.Message { return &protocol.Message{StatsResp: s.stats()} }},
		{name: "replicasubscribe", has: func(m *protocol.Message) bool { return m.ReplicaSubscribeReq != nil }, stream: true,
			serve: func(_ context.Context, c call) *protocol.Message {
				// The stream has its own liveness protocol (acks against
				// heartbeats), so the per-request idle deadline comes off.
				c.conn.SetReadDeadline(time.Time{})
				s.handleReplicaSubscribe(c.pc, c.conn.RemoteAddr().String(), c.ReplicaSubscribeReq)
				return nil
			}},
		{name: "promote", has: func(m *protocol.Message) bool { return m.PromoteReq != nil },
			serve: func(_ context.Context, c call) *protocol.Message { return s.handlePromote(c.PromoteReq) }},
		{name: "reconfigure", has: func(m *protocol.Message) bool { return m.ReconfigureReq != nil },
			serve: func(_ context.Context, c call) *protocol.Message { return s.handleReconfigure(c.ReconfigureReq) }},
		// The partition-map exchange a fat client performs before routing anything.
		{name: "clusterinfo", has: func(m *protocol.Message) bool { return m.ClusterInfoReq != nil },
			serve: func(context.Context, call) *protocol.Message {
				return &protocol.Message{ClusterInfoResp: &protocol.ClusterInfoResponse{Partition: s.Partition, Partitions: s.Partitions}}
			}},
		unsupported("cloud"),
	}
}

// handlePromote flips this daemon to primary in place: stop following, raise
// the engine's promotion term to the observer's claimed term, and start
// accepting writes. The order is load-bearing — the replica stream is fully
// stopped (Close blocks until in-flight applies return) before the term is
// bumped, and writes are only admitted after the bump, so no replicated
// record can land after the term record and no local write can precede it.
// Re-promoting to the current term is idempotent, letting an observer retry
// a promote whose acknowledgement it lost.
func (s *CloudService) handlePromote(req *protocol.PromoteRequest) *protocol.Message {
	if s.Eng == nil {
		return errMsg(fmt.Errorf("cloud: this server has no durable engine to promote (start it with -data)"))
	}
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if cur := s.Eng.Term(); req.Term < cur {
		return errMsgCode(protocol.CodeStaleTerm, fmt.Errorf("cloud: promote to term %d refused, already at term %d", req.Term, cur))
	}
	if r := s.replica(); r != nil {
		r.Close()
	}
	if err := s.Eng.SetTerm(req.Term); err != nil {
		return errMsgCode(protocol.CodeStaleTerm, fmt.Errorf("cloud: promote: %w", err))
	}
	s.replMu.Lock()
	s.Replica = nil
	s.demoted = false
	s.replMu.Unlock()
	logf(s.Logger, "cloud: promoted to primary at term %d (term starts at position %d)", s.Eng.Term(), s.Eng.TermStart())
	return &protocol.Message{PromoteResp: &protocol.PromoteResponse{
		Term:     s.Eng.Term(),
		Position: s.Eng.TermStart(),
	}}
}

// handleReconfigure repoints this daemon at a new primary (or detaches it,
// with an empty primary address). A follower drops its stream and
// re-subscribes; an old primary receiving this learns it was failed over and
// rejoins as a follower — its diverged log tail, if any, is wiped when the
// subscribe is bounced with CodeDiverged and retried as a bootstrap.
func (s *CloudService) handleReconfigure(req *protocol.ReconfigureRequest) *protocol.Message {
	if s.Eng == nil {
		return errMsg(fmt.Errorf("cloud: this server has no durable engine to reconfigure (start it with -data)"))
	}
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if cur := s.Eng.Term(); req.Term < cur {
		return errMsgCode(protocol.CodeStaleTerm, fmt.Errorf("cloud: reconfigure at term %d refused, already at term %d", req.Term, cur))
	}
	if r := s.replica(); r != nil {
		if req.Primary != "" && r.Primary() == req.Primary {
			// Already following the requested primary: nothing to do.
			return &protocol.Message{ReconfigureResp: &protocol.ReconfigureResponse{Term: s.Eng.Term()}}
		}
		r.Close()
	}
	var nr *Replica
	if req.Primary != "" {
		nr = StartReplica(s.Eng, req.Primary, s.Logger)
	}
	s.replMu.Lock()
	s.Replica = nr
	s.demoted = false // the daemon is back in a defined role
	s.replMu.Unlock()
	if req.Primary != "" {
		logf(s.Logger, "cloud: reconfigured to follow %s (term %d)", req.Primary, req.Term)
	} else {
		logf(s.Logger, "cloud: reconfigured to standalone")
	}
	return &protocol.Message{ReconfigureResp: &protocol.ReconfigureResponse{Term: s.Eng.Term()}}
}

// checkOwnership rejects a mutation for a document this partition does not
// own. Searches are never checked — a scatter-gather query legitimately
// reaches every partition.
func (s *CloudService) checkOwnership(docID string) *protocol.Message {
	if s.Partitions <= 1 {
		return nil
	}
	if own := (cluster.Map{Partitions: s.Partitions}).Owner(docID); own != s.Partition {
		return errMsgCode(protocol.CodeWrongPartition, fmt.Errorf(
			"cloud: document %q belongs to partition %d/%d, this server is partition %d — the sender's partition map is misconfigured",
			docID, own, s.Partitions, s.Partition))
	}
	return nil
}

func (s *CloudService) handleUpload(ctx context.Context, req *protocol.UploadRequest) *protocol.Message {
	if s.replica() != nil {
		return errMsgCode(protocol.CodeReadOnly, fmt.Errorf("cloud: this server is a read-only replica; route uploads to the primary"))
	}
	if s.isDemoted() {
		return errMsgCode(protocol.CodeReadOnly, fmt.Errorf("cloud: this server was failed over and is fenced read-only; route uploads to the new primary"))
	}
	if reject := s.checkOwnership(req.DocID); reject != nil {
		return reject
	}
	levels := make([]*bitindex.Vector, len(req.Levels))
	for i, raw := range req.Levels {
		v, err := unmarshalVector(raw)
		if err != nil {
			return errMsg(fmt.Errorf("cloud: upload level %d: %w", i+1, err))
		}
		levels[i] = v
	}
	si := &core.SearchIndex{DocID: req.DocID, Levels: levels}
	doc := &core.EncryptedDocument{ID: req.DocID, Ciphertext: req.Ciphertext, EncKey: req.EncKey}
	var err error
	if s.Store != nil {
		err = s.Store.UploadCtx(ctx, si, doc)
	} else {
		err = s.Server.Upload(si, doc)
	}
	if err != nil {
		return errMsg(err)
	}
	return &protocol.Message{UploadResp: &protocol.UploadResponse{Stored: s.Server.NumDocuments()}}
}

func (s *CloudService) handleDelete(ctx context.Context, req *protocol.DeleteRequest) *protocol.Message {
	if s.replica() != nil {
		return errMsgCode(protocol.CodeReadOnly, fmt.Errorf("cloud: this server is a read-only replica; route deletions to the primary"))
	}
	if s.isDemoted() {
		return errMsgCode(protocol.CodeReadOnly, fmt.Errorf("cloud: this server was failed over and is fenced read-only; route deletions to the new primary"))
	}
	if reject := s.checkOwnership(req.DocID); reject != nil {
		return reject
	}
	var err error
	if s.Store != nil {
		err = s.Store.DeleteCtx(ctx, req.DocID)
	} else {
		err = s.Server.Delete(req.DocID)
	}
	if err != nil {
		return errMsg(err)
	}
	logf(s.Logger, "cloud: deleted %q, %d documents remain", req.DocID, s.Server.NumDocuments())
	return &protocol.Message{DeleteResp: &protocol.DeleteResponse{Stored: s.Server.NumDocuments()}}
}

// searchReply wraps a finished search's reply, or its error.
func (s *CloudService) searchReply(resp *protocol.Message, err error) *protocol.Message {
	if err != nil {
		return errMsg(err)
	}
	logf(s.Logger, "cloud: search over %d documents", s.Server.NumDocuments())
	return resp
}

// matchesToWire is a scan result as the wire (and the cache) carries it:
// the same slice, except that no matches is an empty slice, never nil —
// SearchBatchWire reads a nil slot as one the cache did not answer.
func matchesToWire(matches []core.Match) []protocol.MatchWire {
	if matches == nil {
		return []protocol.MatchWire{}
	}
	return matches
}

// wireSize is the cache-accounted payload of one result: the variable-length
// bytes plus a constant per match for the fixed fields.
func wireSize(ms []protocol.MatchWire) int64 {
	n := int64(0)
	for i := range ms {
		n += int64(len(ms[i].DocID)) + 48
	}
	return n
}

// SearchWire answers a single-query SearchRequest, the frame older clients
// send, as a batch of one through SearchBatchWire.
func (s *CloudService) SearchWire(req *protocol.SearchRequest) (*protocol.SearchResponse, error) {
	return s.searchOne(context.Background(), req)
}

// searchOne is the one adapter from a SearchRequest to SearchBatchWire.
func (s *CloudService) searchOne(ctx context.Context, req *protocol.SearchRequest) (*protocol.SearchResponse, error) {
	resp, err := s.SearchBatchWire(ctx, &protocol.SearchBatchRequest{Queries: [][]byte{req.Query}, TopK: req.TopK})
	if err != nil {
		return nil, err
	}
	return &protocol.SearchResponse{Matches: resp.Results[0]}, nil
}

// SearchBatchWire is the cloud daemon's one search path at the wire level:
// the handler of both search frames, callable in-process by tests and
// benchmarks. Result i answers req.Queries[i]; a correct client never
// repeats a query vector, because each ANDs in a fresh random decoy subset
// (Section 4.2), so every query is scanned on its own.
//
// With a Cache configured, the store's mutation epoch is read before the
// scan and each query's fingerprint is looked up: hits skip the scan, the
// misses go through one sharded core SearchBatch pass, and their results
// are stored at that epoch. Result slices may be shared with the cache and
// other requests; callers must not mutate them.
//
// When ctx carries a sampled trace, the lookups record one "qcache" span
// (hits and misses counts) and the scan records its "scan" span through
// the core server's scan hook.
func (s *CloudService) SearchBatchWire(ctx context.Context, req *protocol.SearchBatchRequest) (*protocol.SearchBatchResponse, error) {
	out := make([][]protocol.MatchWire, len(req.Queries))
	var keys []qcache.Key
	var epoch uint64
	if s.Cache != nil {
		// The epoch MUST be read before the scan starts: a mutation landing
		// between this read and the scan invalidates the entries we are about
		// to store, never the other way around.
		epoch = s.Server.Epoch()
		t0 := time.Now()
		keys = make([]qcache.Key, len(req.Queries))
		hits := 0
		for i, raw := range req.Queries {
			keys[i] = qcache.Fingerprint(s.Server.Params().R, req.TopK, raw)
			if wire, ok := s.Cache.Get(keys[i], epoch); ok {
				out[i] = wire
				hits++
			}
		}
		if trace.Sampled(ctx) {
			trace.AddCompleted(ctx, "qcache", t0, time.Since(t0), nil,
				trace.Attr{Key: "hits", Value: strconv.Itoa(hits)},
				trace.Attr{Key: "misses", Value: strconv.Itoa(len(req.Queries) - hits)})
		}
	}
	// matchesToWire never returns nil, so a nil slot is one the cache did
	// not answer: decode those, scan them in one pass, fill them in order.
	queries := make([]*bitindex.Vector, 0, len(req.Queries))
	for i, raw := range req.Queries {
		if out[i] != nil {
			continue
		}
		q, err := unmarshalVector(raw)
		if err != nil {
			return nil, fmt.Errorf("cloud: malformed query %d: %w", i, err)
		}
		queries = append(queries, q)
	}
	results, err := s.Server.SearchBatch(ctx, queries, req.TopK)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i] != nil {
			continue
		}
		out[i] = matchesToWire(results[0])
		results = results[1:]
		if s.Cache != nil {
			s.Cache.Put(keys[i], epoch, out[i], wireSize(out[i]))
		}
	}
	return &protocol.SearchBatchResponse{Results: out}, nil
}

// stats reads the daemon's operational state: store size and layout,
// mutation epoch, log position and term (with replication lag on a
// follower, and the acknowledged position of every connected follower on a
// primary), and the query-result cache counters. It is the one reader of
// that state: the Stats verb replies with it, and every state series on
// /metrics is a row over it (statsRows).
func (s *CloudService) stats() *protocol.StatsResponse {
	resp := &protocol.StatsResponse{
		NumDocuments: s.Server.NumDocuments(),
		NumShards:    s.Server.NumShards(),
		Epoch:        s.Server.Epoch(),
		Partition:    s.Partition,
		Partitions:   s.Partitions,
	}
	if s.WAL != nil {
		resp.Durable = true
		resp.WALPosition = s.WAL.Position()
		resp.PrimaryPosition = resp.WALPosition
		resp.Term = s.WAL.Term()
	}
	if r := s.replica(); r != nil {
		st := r.Status()
		resp.Replica = true
		resp.ReplicaConnected = st.Connected
		resp.WALPosition = st.Position
		resp.PrimaryPosition = st.PrimaryPosition
	}
	s.replMu.Lock()
	for f := range s.followers {
		resp.Followers = append(resp.Followers, protocol.FollowerWire{Addr: f.addr, Acked: f.acked.Load()})
	}
	s.replMu.Unlock()
	sort.Slice(resp.Followers, func(i, j int) bool { return resp.Followers[i].Addr < resp.Followers[j].Addr })
	if s.Cache != nil {
		cs := s.Cache.Stats()
		resp.Cache = protocol.CacheStatsWire{
			Enabled:       true,
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			Evictions:     cs.Evictions,
			Invalidations: cs.Invalidations,
			Entries:       cs.Entries,
			Bytes:         cs.Bytes,
			MaxBytes:      cs.MaxBytes,
		}
	}
	return resp
}

func (s *CloudService) handleFetch(req *protocol.FetchRequest) *protocol.Message {
	doc, err := s.Server.Fetch(req.DocID)
	if err != nil {
		return errMsg(err)
	}
	return &protocol.Message{FetchResp: &protocol.FetchResponse{
		DocID:      doc.ID,
		Ciphertext: doc.Ciphertext,
		EncKey:     doc.EncKey,
	}}
}
