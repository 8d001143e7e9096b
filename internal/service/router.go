package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// DefaultPartitionTimeout bounds each exchange with a partition: a server
// that has not answered within this budget is declared failed for the
// request, its connection is dropped, and the router moves on to the next
// server in the read order (or returns a typed error). Override per client
// via Client.PartitionTimeout.
const DefaultPartitionTimeout = 2 * time.Second

// DefaultMaxReplicaLag is how many log records a read replica may trail the
// primary before the client routes its reads back to the primary.
const DefaultMaxReplicaLag = 1024

// router decides where every exchange with the cloud goes: the topology,
// one partition (primary + replicas) per entry of it, and the budgets that
// bound and steer each exchange. A user's Client embeds one beside its
// crypto session; the one-shot verbs (UploadAllCluster, DeleteAllCluster,
// FetchClusterStats) build one per call. Its methods assume the caller
// owns it: the Client holds its mutex, a one-shot verb is the router's
// only user.
type router struct {
	// MaxReplicaLag is the most records a replica may trail the primary and
	// still serve this client's reads (0 = DefaultMaxReplicaLag). Set
	// before the first search.
	MaxReplicaLag uint64

	// ReplicaProbeEvery is how often a replica's position is re-checked
	// with a status request before trusting it with reads (0 = 1s). Set
	// before the first search.
	ReplicaProbeEvery time.Duration

	// PartitionTimeout bounds each exchange with a cloud daemon — a
	// partition's share of a scatter-gather read, a routed fetch, upload or
	// delete, a status probe (0 = DefaultPartitionTimeout). Set before the
	// first request.
	PartitionTimeout time.Duration

	topo  cluster.Config
	parts []*partition
}

// partition is the router's view of one partition: the endpoint currently
// believed to be its primary, and every other server known to hold its
// corpus slice. All access is serialized by the router's owner, except
// during a scatter-gather fan-out, where each goroutine owns exactly one
// partition.
type partition struct {
	index   int
	primary *endpoint
	// replicas are the fallback read targets and promotion candidates, in
	// config order (followed by any AddReadReplicas registered).
	replicas []*endpoint
	// rotation is the subset registered through AddReadReplicas: searches
	// are load-balanced across it before the primary is asked.
	rotation []*endpoint
	next     int // rotation cursor
}

// newRouter builds a router over a topology. Nothing is dialed: each
// endpoint connects on its first exchange.
func newRouter(cfg cluster.Config) (router, error) {
	if err := cfg.Validate(); err != nil {
		return router{}, err
	}
	r := router{topo: cfg}
	for i, pc := range cfg.Partitions {
		p := &partition{index: i, primary: &endpoint{addr: pc.Primary}}
		for _, addr := range pc.Replicas {
			p.replicas = append(p.replicas, &endpoint{addr: addr})
		}
		r.parts = append(r.parts, p)
	}
	return r, nil
}

// onePartition is the topology of a single cloud daemon.
func onePartition(addr string) cluster.Config {
	return cluster.Config{Partitions: []cluster.Partition{{Primary: addr}}}
}

// dialPrimaries connects to every partition primary and performs the
// partition-map exchange: the server at config position i must report
// identity i/P, so a miswired address list (wrong order, wrong count, a
// server from another cluster) is caught at dial time rather than silently
// misrouting documents. A server with no cluster identity at all is
// tolerated only in a single-partition topology, where every routing
// decision is trivially correct.
func (r *router) dialPrimaries() error {
	n := len(r.parts)
	for i, p := range r.parts {
		resp, err := p.primary.call(&protocol.Message{ClusterInfoReq: &protocol.ClusterInfoRequest{}}, DialTimeout, DialTimeout)
		if err != nil {
			return fmt.Errorf("service: cluster info from partition %d (%s): %w", i, p.primary.addr, err)
		}
		switch ci := resp.ClusterInfoResp; {
		case ci == nil:
			return fmt.Errorf("service: cluster info response missing from partition %d", i)
		case ci.Partitions == 0 && n > 1:
			return fmt.Errorf("service: partition %d reports no cluster identity, want %d/%d", i, i, n)
		case ci.Partitions != 0 && (ci.Partition != i || ci.Partitions != n):
			return fmt.Errorf("service: partition %d reports identity %d/%d, want %d/%d",
				i, ci.Partition, ci.Partitions, i, n)
		}
	}
	return nil
}

// dropAll closes every primary and replica connection.
func (r *router) dropAll() error {
	var errs []error
	for _, p := range r.parts {
		for _, ep := range append([]*endpoint{p.primary}, p.replicas...) {
			errs = append(errs, ep.drop())
		}
	}
	return errors.Join(errs...)
}

// ClusterConfig returns the topology this client was dialed with — a
// one-partition config for a client built with Dial.
func (c *Client) ClusterConfig() cluster.Config { return c.topo }

// AddReadReplicas registers follower addresses to fan Search/SearchBatch
// traffic across. Connections are dialed lazily and re-dialed after
// failures; an unreachable or lagging replica routes reads back to the
// primary, with failing replicas benched on an exponential back-off so a
// dead address costs at most an occasional short dial timeout, not a stall
// per search. The same addresses are where the client looks for a promoted
// primary after losing the one it was dialed with.
//
// A bare address list cannot say which partition each follower replicates,
// so on a multi-partition client the call is rejected: list replicas in the
// cluster.Config instead.
func (c *Client) AddReadReplicas(addrs ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.parts) != 1 {
		return fmt.Errorf("service: AddReadReplicas on a %d-partition client: list replicas per partition in the cluster config", len(c.parts))
	}
	p := c.parts[0]
	for _, a := range addrs {
		ep := &endpoint{addr: a}
		p.replicas = append(p.replicas, ep)
		p.rotation = append(p.rotation, ep)
	}
	return nil
}

// ReadDistribution reports how many read requests each server has answered
// for this client, keyed by replica address, plus "primary" for the
// partitions' current primaries.
func (c *Client) ReadDistribution() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64)
	for _, p := range c.parts {
		if p.primary.reads > 0 {
			out["primary"] += p.primary.reads
		}
		for _, ep := range p.replicas {
			if ep.reads > 0 {
				out[ep.addr] += ep.reads
			}
		}
	}
	return out
}

func (r *router) partitionTimeout() time.Duration {
	if r.PartitionTimeout > 0 {
		return r.PartitionTimeout
	}
	return DefaultPartitionTimeout
}

func (r *router) maxLag() uint64 {
	if r.MaxReplicaLag > 0 {
		return r.MaxReplicaLag
	}
	return DefaultMaxReplicaLag
}

func (r *router) probeEvery() time.Duration {
	if r.ReplicaProbeEvery > 0 {
		return r.ReplicaProbeEvery
	}
	return time.Second
}

// attempt is one try of a request against one server, redialing it first
// when its connection was dropped, under the partition timeout. Sampled
// traces get an "attempt" span (and a "redial" child when one happened).
func (r *router) attempt(ctx context.Context, ep *endpoint, role string, m *protocol.Message) (*protocol.Message, error) {
	actx, sp := trace.Start(ctx, "attempt")
	sp.SetAttr("addr", ep.addr)
	sp.SetAttr("role", role)
	var resp *protocol.Message
	var err error
	if ep.conn == nil {
		_, dsp := trace.Start(actx, "redial")
		err = ep.dial(redialTimeout)
		dsp.End()
	}
	if err == nil {
		resp, err = ep.roundtrip(m, r.partitionTimeout())
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return resp, err
}

// lostPrimary reports whether a primary's reply means it is no longer the
// primary: the exchange broke, or the daemon answered that it has been
// fenced out of the role. Ordinary rejections pass through — any server
// would reject those.
func lostPrimary(err error) bool {
	if err == nil {
		return false
	}
	var remote *protocol.RemoteError
	if errors.As(err, &remote) {
		return remote.Code == protocol.CodeReadOnly
	}
	return true
}

// readPart sends one read request to a single partition. The read order is
// stated here once, for every topology:
//
//  1. a rotating, lag-probed replica — only when balance is set (searches)
//     and AddReadReplicas registered any;
//  2. the primary, under the partition timeout;
//  3. on a transport failure or a read-only rejection, the promoted
//     survivor among the partition's replicas, once (followPrimary);
//  4. the partition's remaining replicas, in order;
//  5. an error naming the partition, which scatter folds into a
//     *cluster.PartialError.
//
// It returns the address that answered (or the primary's, for failure
// reporting). A *protocol.RemoteError passes through without fallback: the
// server understood the request and rejected it, and every server holding
// the partition would.
//
// The caller must own the partition exclusively — either by owning the
// router, or by being the one fan-out goroutine assigned to this partition
// while the router's owner waits.
func (r *router) readPart(ctx context.Context, p *partition, m *protocol.Message, balance bool) (*protocol.Message, string, error) {
	if balance {
		if ep := r.pickReplica(p); ep != nil {
			resp, err := r.attempt(ctx, ep, "replica", m)
			if !isTransport(err) {
				ep.reads++
				return resp, ep.addr, err
			}
			ep.bench(r.probeEvery())
		}
	}
	resp, err := r.askPrimary(ctx, p, m)
	if !isTransport(err) {
		p.primary.reads++
		return resp, p.primary.addr, err
	}
	for _, ep := range p.replicas {
		resp, rerr := r.attempt(ctx, ep, "replica", m)
		if !isTransport(rerr) {
			ep.reads++
			return resp, ep.addr, rerr
		}
	}
	return nil, p.primary.addr, fmt.Errorf("service: partition %d unreachable: %w", p.index, err)
}

// askPrimary sends a request to a partition's primary — steps 2 and 3 of
// the read order and nothing else. It is the primary leg of every read and
// the whole mutate routine: mutations never touch a replica, because a
// follower would reject them as read-only and routing them elsewhere would
// fork the partition's history.
func (r *router) askPrimary(ctx context.Context, p *partition, m *protocol.Message) (*protocol.Message, error) {
	resp, err := r.attempt(ctx, p.primary, "primary", m)
	if lostPrimary(err) && r.followPrimary(p) {
		resp, err = r.attempt(ctx, p.primary, "primary", m)
	}
	return resp, err
}

// followPrimary re-discovers a partition's primary after losing it: it asks
// every replica where it stands, and a durable daemon that no longer calls
// itself a replica — the promoted survivor, preferring the highest
// promotion term — takes over the primary role. A candidate below the
// highest term any replica reports is a deposed primary that was never
// fenced, and is refused. The deposed endpoint joins the replica list: if
// that daemon resurrects, it will be as a follower.
func (r *router) followPrimary(p *partition) bool {
	best := -1
	var bestTerm, maxTerm uint64
	for i, ep := range p.replicas {
		st, err := r.stats(ep)
		if err != nil {
			continue
		}
		maxTerm = max(maxTerm, st.Term)
		if !st.Durable || st.Replica {
			continue
		}
		if best < 0 || st.Term > bestTerm {
			best, bestTerm = i, st.Term
		}
	}
	if best < 0 || bestTerm < maxTerm {
		return false
	}
	p.primary, p.replicas[best] = p.replicas[best], p.primary
	return true
}

// stats asks a server where it stands, on the endpoint's own connection and
// under the partition timeout.
func (r *router) stats(ep *endpoint) (*protocol.StatsResponse, error) {
	resp, err := ep.call(&protocol.Message{StatsReq: &protocol.StatsRequest{}},
		redialTimeout, r.partitionTimeout())
	if err != nil {
		return nil, err
	}
	if resp.StatsResp == nil {
		return nil, errors.New("service: stats response missing")
	}
	return resp.StatsResp, nil
}

// pickReplica rotates over the partition's read rotation and returns the
// first replica fit to serve a read, or nil to use the primary.
func (r *router) pickReplica(p *partition) *endpoint {
	n := len(p.rotation)
	for i := 0; i < n; i++ {
		ep := p.rotation[(p.next+i)%n]
		if ep != p.primary && r.caughtUp(ep) {
			p.next = (p.next + i + 1) % n
			return ep
		}
	}
	return nil
}

// caughtUp reports whether a rotation replica is reachable and within the
// lag budget, dialing and status-probing it as needed. A replica that fails
// either is benched.
func (r *router) caughtUp(ep *endpoint) bool {
	now := time.Now()
	if now.Before(ep.downUntil) {
		return false
	}
	if err := ep.dial(redialTimeout); err != nil {
		ep.bench(r.probeEvery())
		return false
	}
	if now.Sub(ep.checkedAt) >= r.probeEvery() {
		st, err := r.stats(ep)
		if err != nil {
			ep.bench(r.probeEvery())
			return false
		}
		ep.checkedAt = now
		ep.fails = 0
		ep.lagging = st.PrimaryPosition-st.WALPosition > r.maxLag() || (st.Replica && !st.ReplicaConnected)
	}
	return !ep.lagging
}

// scatter fans one read request to every partition concurrently and gathers
// the responses. resps[i] is nil when partition i (and all its replicas)
// failed; the returned error is a *cluster.PartialError naming each failed
// partition, or nil when every partition answered. Caller holds the
// router exclusively; each
// goroutine touches only its own partition.
//
// Under a sampled trace each partition gets its own "partition" span and a
// shallow copy of the request carrying that span's propagation context —
// the shared Message must not be stamped in place, or every partition would
// claim the same parent. The partition server's echoed spans are imported
// under the partition span, assembling the cross-daemon tree client-side.
func (r *router) scatter(ctx context.Context, m *protocol.Message, balance bool) ([]*protocol.Message, error) {
	parts := r.parts
	resps := make([]*protocol.Message, len(parts))
	addrs := make([]string, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p *partition) {
			defer wg.Done()
			pctx, sp := trace.Start(ctx, "partition")
			req := m
			if sp != nil {
				sp.SetAttr("partition", strconv.Itoa(i))
				cp := *m
				cp.Trace = traceCtxToWire(sp.Context())
				req = &cp
			}
			resps[i], addrs[i], errs[i] = r.readPart(pctx, p, req, balance)
			if sp != nil {
				sp.SetAttr("addr", addrs[i])
				if errs[i] != nil {
					sp.SetAttr("error", errs[i].Error())
				}
				if resps[i] != nil {
					trace.Import(pctx, spansFromWire(sp.TraceID(), resps[i].Spans))
				}
				sp.End()
			}
		}(i, p)
	}
	wg.Wait()
	var pe *cluster.PartialError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if pe == nil {
			pe = &cluster.PartialError{Partitions: len(parts)}
		}
		pe.Failures = append(pe.Failures, cluster.PartitionFailure{
			Partition: i, Addr: addrs[i], Err: err,
		})
		resps[i] = nil
	}
	if pe != nil {
		return resps, pe
	}
	return resps, nil
}

// scatterSearchBatch is the scatter-gather search: every partition runs the
// batch over its own corpus slice with its local top-τ cut, in one round
// trip, and the coordinator interleaves each query's sorted lists and
// applies the global cut. Because partitions hold disjoint document sets,
// each merged prefix is byte-identical to a single-node scan of the whole
// corpus. When partitions failed, the merged results cover the survivors
// and the *cluster.PartialError names the rest — callers choose whether a
// partial answer is usable.
func (r *router) scatterSearchBatch(ctx context.Context, wire [][]byte, topK int) ([][]Match, error) {
	sctx, sp := trace.Start(ctx, "scatter")
	resps, pe := r.scatter(sctx, &protocol.Message{SearchBatchReq: &protocol.SearchBatchRequest{
		Queries: wire,
		TopK:    topK,
	}}, true)
	sp.SetAttr("partitions", strconv.Itoa(len(resps)))
	sp.End()
	for pi, resp := range resps {
		if resp == nil {
			continue
		}
		if resp.SearchBatchResp == nil {
			return nil, fmt.Errorf("service: batch search response missing from partition %d", pi)
		}
		if got := len(resp.SearchBatchResp.Results); got != len(wire) {
			return nil, fmt.Errorf("service: partition %d returned %d result sets for %d queries", pi, got, len(wire))
		}
	}
	out := make([][]Match, len(wire))
	lists := make([][]protocol.MatchWire, 0, len(resps))
	for qi := range out {
		lists = lists[:0]
		for _, resp := range resps {
			if resp != nil {
				lists = append(lists, resp.SearchBatchResp.Results[qi])
			}
		}
		out[qi] = cluster.MergeWire(lists, topK)
	}
	return out, pe
}

// scatterStats fetches one StatsResponse per partition, in partition order.
func (r *router) scatterStats() ([]*protocol.StatsResponse, error) {
	resps, pe := r.scatter(context.Background(), &protocol.Message{StatsReq: &protocol.StatsRequest{}}, false)
	out := make([]*protocol.StatsResponse, len(resps))
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		if resp.StatsResp == nil {
			return nil, fmt.Errorf("service: stats response missing from partition %d", i)
		}
		out[i] = resp.StatsResp
	}
	return out, pe
}

// owning returns the partition owning a document ID.
func (r *router) owning(docID string) *partition {
	return r.parts[r.topo.Map().Owner(docID)]
}

// mutate sends a mutation of one document to the primary of the partition
// owning it — the one write path, for the owner's bulk verbs and
// Client.Delete alike. It never touches a replica (see askPrimary).
func (r *router) mutate(docID string, m *protocol.Message) (*protocol.Message, error) {
	return r.askPrimary(context.Background(), r.owning(docID), m)
}

// deleteDoc removes one document from the partition owning it.
func (r *router) deleteDoc(docID string) error {
	resp, err := r.mutate(docID, &protocol.Message{DeleteReq: &protocol.DeleteRequest{DocID: docID}})
	if err == nil && resp.DeleteResp == nil {
		err = errors.New("response missing")
	}
	if err != nil {
		return fmt.Errorf("service: deleting %q: %w", docID, err)
	}
	return nil
}

// AggregateClusterStats folds per-partition stats into one cluster-wide
// view: document, shard and cache counters sum; Partition is -1 to mark the
// aggregate and Partitions counts the partitions that answered; Durable
// holds only if every partition is durable. The per-log fields (epoch, WAL
// position, term, replication state) have no cluster-wide meaning and stay
// zero — unless exactly one partition answered, whose view then carries
// over whole, so a one-partition aggregate loses nothing.
func AggregateClusterStats(parts []*protocol.StatsResponse) *protocol.StatsResponse {
	agg := &protocol.StatsResponse{Durable: true}
	var last *protocol.StatsResponse
	for _, st := range parts {
		if st == nil {
			continue
		}
		last = st
		agg.Partitions++
		agg.NumDocuments += st.NumDocuments
		agg.NumShards += st.NumShards
		agg.Durable = agg.Durable && st.Durable
		agg.Cache.Enabled = agg.Cache.Enabled || st.Cache.Enabled
		agg.Cache.Hits += st.Cache.Hits
		agg.Cache.Misses += st.Cache.Misses
		agg.Cache.Evictions += st.Cache.Evictions
		agg.Cache.Invalidations += st.Cache.Invalidations
		agg.Cache.Entries += st.Cache.Entries
		agg.Cache.Bytes += st.Cache.Bytes
		if st.Cache.MaxBytes > agg.Cache.MaxBytes {
			agg.Cache.MaxBytes = st.Cache.MaxBytes
		}
	}
	if agg.Partitions == 1 {
		*agg = *last
		agg.Partitions = 1
	}
	agg.Partition = -1
	return agg
}
