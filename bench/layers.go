package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/qcache"
	"mkse/internal/service"
	"mkse/internal/store"
	"mkse/internal/trace"
)

// Sizes of the side fixtures the layer timings run on. They do not scale
// with the workload: a layer's cost per call is a property of the layer.
const (
	sideDocs      = 5000 // documents in the side core server and durable engine
	sideTailDocs  = 500  // documents logged after the side checkpoint, for replay
	fsyncOps      = 200
	rpcOps        = 200
	retrieveDocs  = 8
	microBatches  = 7
	traceSearches = 100 // per block of the program-tracing comparison
)

// prober runs the direct layer timings. The first error a timed call
// returns sticks and fails the run; later timings still execute, so the
// timing code reads straight through.
type prober struct {
	err error
	div int // iteration counts are divided by this (tests only)
}

func (p *prober) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// perOp times fn in batches and returns the median batch's nanoseconds
// per call, so one preempted batch does not move the result.
func (p *prober) perOp(batches, n int, fn func(i int) error) float64 {
	n = max(n/p.div, 1)
	vs := make([]float64, batches)
	for b := range vs {
		start := time.Now()
		for i := 0; i < n; i++ {
			p.check(fn(b*n + i))
		}
		vs[b] = float64(time.Since(start)) / float64(n)
	}
	return medianOf(vs)
}

// allocsPerOp counts process-wide mallocs per call of fn. The process is
// otherwise idle while it runs.
func (p *prober) allocsPerOp(n int, fn func(i int) error) float64 {
	n = max(n/p.div, 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		p.check(fn(i))
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// handSearch is the traced run's search: the same steps the fat client
// takes, assembled by hand from the layers' public functions so that a
// span can be recorded around each call. One raw loopback connection per
// partition; the request and response bytes are the client's.
type handSearch struct {
	rec    *recorder
	client *service.Client
	conns  []net.Conn
	req    int
}

func dialHand(s *system, rec *recorder) (*handSearch, error) {
	h := &handSearch{rec: rec, client: s.client}
	for _, p := range s.cfg.Partitions {
		c, err := net.DialTimeout("tcp", p.Primary, service.DialTimeout)
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, c)
	}
	return h, nil
}

func (h *handSearch) close() {
	for _, c := range h.conns {
		c.Close()
	}
}

func (h *handSearch) search(words []string) ([]service.Match, error) {
	h.req++
	req, rec := h.req, h.rec
	root := rec.begin(req, 0, "client.search", -1)
	defer rec.end(root)

	sp := rec.begin(req, root, "client.trapdoors", -1)
	err := h.client.EnsureTrapdoors(words)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(req, root, "core.build_query", -1)
	q, err := h.client.User().BuildQuery(words)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(req, root, "bitindex.marshal", -1)
	raw, err := q.MarshalBinary()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	msg := &protocol.Message{SearchReq: &protocol.SearchRequest{Query: raw, TopK: topK}}

	scatter := rec.begin(req, root, "client.scatter", -1)
	lists := make([][]protocol.MatchWire, len(h.conns))
	errs := make([]error, len(h.conns))
	var wg sync.WaitGroup
	for i := range h.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i], errs[i] = h.rpc(req, scatter, i, msg)
		}()
	}
	wg.Wait()
	rec.end(scatter)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	sp = rec.begin(req, root, "cluster.merge", -1)
	merged := cluster.MergeWire(lists, topK)
	rec.end(sp)
	out := make([]service.Match, len(merged))
	for i, m := range merged {
		out[i] = service.Match{DocID: m.DocID, Rank: m.Rank}
	}
	return out, nil
}

// rpc is one partition's round trip, split where the public functions
// allow: arm the partition deadline as the client does, encode the frame,
// write it, wait for the reply frame (the daemon's whole handling plus
// loopback both ways), decode it, disarm the deadline.
func (h *handSearch) rpc(req, parent, part int, msg *protocol.Message) ([]protocol.MatchWire, error) {
	rec, conn := h.rec, h.conns[part]
	id := rec.begin(req, parent, "service.search_rpc", part)
	defer rec.end(id)

	sp := rec.begin(req, id, "client.deadline", part)
	err := conn.SetDeadline(time.Now().Add(service.DefaultPartitionTimeout))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	defer func() {
		sp := rec.begin(req, id, "client.deadline", part)
		conn.SetDeadline(time.Time{})
		rec.end(sp)
	}()

	sp = rec.begin(req, id, "protocol.encode", part)
	var frame bytes.Buffer
	err = protocol.NewConn(&frame).Send(msg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	// Header and body in two writes, as protocol.WriteFrame sends them.
	sp = rec.begin(req, id, "net.write", part)
	_, err = conn.Write(frame.Bytes()[:4])
	if err == nil {
		_, err = conn.Write(frame.Bytes()[4:])
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(req, id, "service.wait", part)
	payload, err := protocol.ReadFrame(conn)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(req, id, "protocol.decode", part)
	resp, err := decodeFrame(payload)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if resp.Error != nil {
		return nil, fmt.Errorf("partition %d: %s", part, resp.Error.Text)
	}
	if resp.SearchResp == nil {
		return nil, fmt.Errorf("partition %d: search response missing", part)
	}
	return resp.SearchResp.Matches, nil
}

// decodeFrame decodes one frame payload through protocol.Conn.Recv.
func decodeFrame(payload []byte) (*protocol.Message, error) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return protocol.NewConn(struct {
		io.Reader
		io.Writer
	}{io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(payload)), io.Discard}).Recv()
}

// encodeFrame encodes one message through protocol.Conn.Send and returns
// the whole frame, header included.
func encodeFrame(m *protocol.Message) ([]byte, error) {
	var b bytes.Buffer
	err := protocol.NewConn(&b).Send(m)
	return b.Bytes(), err
}

// runTraced measures the per-layer metrics. It alternates the workload's
// rounds between service.Client and the hand-assembled traced search, so
// machine drift falls on both alike, then times each layer's public
// functions directly. No end-to-end metric is taken here.
func runTraced(w workload, o options, rep *report, out *os.File) (*runStats, error) {
	s, err := setUp(w, o.seed, o.outDir, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rec := newRecorder()
	h, err := dialHand(s, rec)
	if err != nil {
		return nil, err
	}
	defer h.close()
	clientSearch := func(q []string) ([]service.Match, error) { return s.client.Search(q, topK) }

	rs := &runStats{}
	for _, search := range []func([]string) ([]service.Match, error){clientSearch, h.search} {
		if _, err := s.round(rs, search); err != nil { // warm-up, discarded
			return nil, err
		}
	}
	rec.reset()
	h.req = 0
	var plain, traced []roundStats
	for i := 0; i < tracedPairs; i++ {
		st, err := s.round(rs, clientSearch)
		if err != nil {
			return nil, err
		}
		plain = append(plain, st)
		if st, err = s.round(rs, h.search); err != nil {
			return nil, err
		}
		traced = append(traced, st)
	}
	stats, err := s.client.Stats()
	if err != nil {
		return nil, err
	}
	// Only durable partitions have a result cache; with fat-client traffic
	// it answers nothing (every BuildQuery draws a fresh decoy subset).
	hitRatio := 0.0
	if n := stats.Cache.Hits + stats.Cache.Misses; n > 0 {
		hitRatio = float64(stats.Cache.Hits) / float64(n)
	}
	_, allocBytes, err := s.allocsPerSearch(rs)
	if err != nil {
		return nil, err
	}

	layers, rootUs, coverage := summarize(rec.spans)
	tf := &traceFile{Workload: w.name, Seed: o.seed, Requests: h.req, RootUs: rootUs, CoveragePct: coverage, Layers: layers, Spans: rec.spans}
	if err := writeTraceFile(filepath.Join(o.outDir, "trace_"+w.name+".json"), tf); err != nil {
		return nil, err
	}
	for _, l := range layers {
		fmt.Fprintf(out, "info self_time %-9s %9.2f us %6.2f %% of root\n", l.Layer, l.SelfUs, l.SharePct)
	}
	fmt.Fprintf(out, "info root_span %.2f us, covered by layer spans %.2f %%, %d requests, %d spans\n", rootUs, coverage, h.req, len(rec.spans))

	p50 := func(r roundStats) float64 { return ms(r.p50) }
	plainP50, tracedP50 := median(plain, p50), median(traced, p50)
	ops := float64(w.opsPerRound())
	rep.add("client.search_p99_ms", median(plain, func(r roundStats) float64 { return ms(r.p99) }), "ms")
	rep.add("client.search_mean_ms", median(plain, func(r roundStats) float64 { return ms(r.mean) }), "ms")
	rep.add("client.scatter_us", medianOf(spanDurations(rec.spans, "client.scatter")), "us")
	rep.add("client.dial_cluster_ms", ms(s.dialCluster), "ms")
	rep.add("client.trapdoor_fetch_ms", ms(s.trapdoorWarm), "ms")
	rep.add("service.search_rpc_us", medianOf(spanDurations(rec.spans, "service.search_rpc")), "us")
	if w.durable {
		rep.addTopology("qcache.hit_ratio", hitRatio, "ratio")
	}
	rep.add("proc.cpu_us_per_op", median(plain, func(r roundStats) float64 { return us(r.cpu) / ops }), "us")
	rep.add("proc.alloc_bytes_per_search", allocBytes, "B")
	rep.add("proc.gc_cycles_per_kop", median(plain, func(r roundStats) float64 { return 1000 * float64(r.gcCycles) / ops }), "count")
	rep.add("bench.trace_overhead_pct", 100*(tracedP50-plainP50)/plainP50, "%")
	rep.add("bench.calib_ms", median(plain, func(r roundStats) float64 { return ms(r.calib) }), "ms")
	rep.add("bench.span_coverage_pct", coverage, "%")
	for _, l := range []string{"client", "core", "bitindex", "protocol", "net", "service", "cluster"} {
		v := 0.0
		for _, ls := range layers {
			if ls.Layer == l {
				v = ls.SelfUs
			}
		}
		rep.add("self."+l+"_us", v, "us")
	}

	if err := s.layerTimings(rep, o.outDir); err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.add("proc.peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	}
	if err := s.gate(rs, o.seed); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return rs, nil
}

// layerTimings times each layer's public functions directly: on the
// running cluster where the call is read-only or leaves the live set as it
// found it, on a side fixture otherwise. A layer the workload's topology
// does not have is not timed: the merge and the ownership hash need P > 1,
// mutation round trips need a churning workload, the result cache and the
// storage layers need durable partitions.
func (s *system) layerTimings(rep *report, outDir string) error {
	w, in, params := s.w, s.in, s.in.owner.Params()
	user := s.client.User()
	nq, np := len(in.queries), len(s.nodes)
	p := &prober{div: w.div}

	// core (owner and user side), bitindex.
	rep.add("core.build_index_us", p.perOp(microBatches, 40, func(i int) error {
		_, err := in.owner.BuildIndex(in.docs[i%len(in.docs)])
		return err
	})/1e3, "us")
	buildQuery := func(i int) error {
		_, err := user.BuildQuery(in.queries[i%nq])
		return err
	}
	rep.add("core.build_query_us", p.perOp(microBatches, 400, buildQuery)/1e3, "us")
	rep.add("core.build_query_allocs", p.allocsPerOp(1000, buildQuery), "count")
	vecs := make([]*bitindex.Vector, nq)
	raws := make([][]byte, nq)
	reqs := make([]*protocol.SearchRequest, nq)
	for i, q := range in.queries {
		v, err := user.BuildQuery(q)
		if err != nil {
			return err
		}
		vecs[i] = v
		if raws[i], err = v.MarshalBinary(); err != nil {
			return err
		}
		reqs[i] = &protocol.SearchRequest{Query: raws[i], TopK: topK}
	}
	rep.add("bitindex.marshal_ns", p.perOp(microBatches, 4000, func(i int) error {
		_, err := vecs[i%nq].MarshalBinary()
		return err
	}), "ns")
	rep.add("bitindex.unmarshal_ns", p.perOp(microBatches, 4000, func(i int) error {
		var v bitindex.Vector
		return v.UnmarshalBinary(raws[i%nq])
	}), "ns")

	// core (server side): the in-process scan on the partitions' own
	// stores, every query on every partition.
	scan := func(i int) error {
		_, err := s.nodes[i%np].svc.Server.SearchTop(vecs[(i/np)%nq], topK)
		return err
	}
	searchTopNs := p.perOp(microBatches, max(2*nq*np/microBatches, np), scan)
	rep.add("core.searchtop_us", searchTopNs/1e3, "us")
	rep.add("core.searchtop_allocs", p.allocsPerOp(nq*np, scan), "count")
	rep.add("core.scan_ns_per_doc", searchTopNs/(float64(len(s.m.live))/float64(np)), "ns")
	comparisons := func() (total int64) {
		for _, n := range s.nodes {
			total += n.svc.Server.Costs.BinaryComparisons.Load()
		}
		return total
	}
	before := comparisons()
	for i := 0; i < nq*np; i++ {
		p.check(scan(i))
	}
	rep.add("core.comparisons_per_search", float64(comparisons()-before)/float64(nq), "count")

	// core (store mutations) on a side server.
	side, err := core.NewServer(params)
	if err != nil {
		return err
	}
	sideN := min(sideDocs, len(in.indices))
	payload := make([]byte, ciphertextLen+encKeyLen)
	rep.add("core.upload_us", p.perOp(microBatches, sideN/microBatches, func(i int) error {
		doc := &core.EncryptedDocument{ID: in.indices[i].DocID, Ciphertext: payload[:ciphertextLen], EncKey: payload[ciphertextLen:]}
		return side.Upload(in.indices[i], doc)
	})/1e3, "us")
	rep.add("core.delete_us", p.perOp(microBatches, sideN/microBatches/2, func(i int) error {
		return side.Delete(in.indices[i].DocID)
	})/1e3, "us")

	// protocol: the codec alone, on the messages one search and one upload
	// put on the wire.
	searchReq := &protocol.Message{SearchReq: reqs[0]}
	wire0, err := (&service.CloudService{Server: s.nodes[0].svc.Server}).SearchWire(reqs[0])
	if err != nil {
		return err
	}
	searchResp := &protocol.Message{SearchResp: wire0}
	uploadReq, err := uploadMessage(s.m.mint("codec-probe", 0))
	if err != nil {
		return err
	}
	frames := make(map[*protocol.Message][]byte)
	for _, m := range []*protocol.Message{searchReq, searchResp, uploadReq} {
		if frames[m], err = encodeFrame(m); err != nil {
			return err
		}
	}
	encode := func(m *protocol.Message) func(int) error {
		return func(int) error {
			_, err := encodeFrame(m)
			return err
		}
	}
	decode := func(m *protocol.Message) func(int) error {
		return func(int) error {
			_, err := decodeFrame(frames[m][4:])
			return err
		}
	}
	rep.add("protocol.search_encode_us", (p.perOp(microBatches, 200, encode(searchReq))+p.perOp(microBatches, 200, encode(searchResp)))/1e3, "us")
	rep.add("protocol.search_decode_us", (p.perOp(microBatches, 200, decode(searchReq))+p.perOp(microBatches, 200, decode(searchResp)))/1e3, "us")
	rep.add("protocol.search_codec_allocs", p.allocsPerOp(200, func(i int) error {
		for _, m := range []*protocol.Message{searchReq, searchResp} {
			p.check(encode(m)(i))
			p.check(decode(m)(i))
		}
		return nil
	}), "count")
	rep.add("protocol.search_req_bytes", float64(len(frames[searchReq])), "B")
	rep.add("protocol.search_resp_bytes", float64(len(frames[searchResp])), "B")
	if w.churns() {
		rep.addTopology("protocol.upload_encode_us", p.perOp(microBatches, 200, encode(uploadReq))/1e3, "us")
		rep.addTopology("protocol.upload_req_bytes", float64(len(frames[uploadReq])), "B")
	}

	// service: round trips on raw persistent connections, and SearchWire
	// in-process with and without a warm result cache.
	conns := make([]*protocol.Conn, np)
	for i, part := range s.cfg.Partitions {
		c, err := net.DialTimeout("tcp", part.Primary, service.DialTimeout)
		if err != nil {
			return err
		}
		defer c.Close()
		conns[i] = protocol.NewConn(c)
	}
	ping := func(int) error {
		_, err := conns[0].Roundtrip(&protocol.Message{ClusterInfoReq: &protocol.ClusterInfoRequest{}})
		return err
	}
	rep.add("service.rtt_us", p.perOp(microBatches, 300, ping)/1e3, "us")
	rep.add("service.rtt_allocs", p.allocsPerOp(500, ping), "count")

	pmap := s.cfg.Map()
	if w.churns() {
		// Upload then delete the same probe documents: the live set ends as
		// it began. Each call is long enough to be timed on its own.
		probes := make([]*protocol.Message, max(rpcOps/w.div, 20))
		for i := range probes {
			if probes[i], err = uploadMessage(s.m.mint(fmt.Sprintf("probe-%06d", i), i%len(in.indices))); err != nil {
				return err
			}
		}
		roundtrips := func(request func(upload *protocol.Message) *protocol.Message) float64 {
			vs := make([]float64, len(probes))
			for i, m := range probes {
				t0 := time.Now()
				_, err := conns[pmap.Owner(m.UploadReq.DocID)].Roundtrip(request(m))
				vs[i] = us(time.Since(t0))
				p.check(err)
			}
			return medianOf(vs)
		}
		rep.addTopology("service.upload_rpc_us", roundtrips(func(m *protocol.Message) *protocol.Message { return m }), "us")
		rep.addTopology("service.delete_rpc_us", roundtrips(func(m *protocol.Message) *protocol.Message {
			return &protocol.Message{DeleteReq: &protocol.DeleteRequest{DocID: m.UploadReq.DocID}}
		}), "us")
	}

	cold := &service.CloudService{Server: s.nodes[0].svc.Server}
	searchWire := func(svc *service.CloudService) func(int) error {
		return func(i int) error {
			_, err := svc.SearchWire(reqs[i%nq])
			return err
		}
	}
	rep.add("service.searchwire_us", p.perOp(microBatches, max(2*nq/microBatches, 1), searchWire(cold))/1e3, "us")

	if np > 1 {
		// cluster: merge of real per-partition lists, and the ownership hash.
		lists := make([][][]protocol.MatchWire, nq)
		for qi := range lists {
			lists[qi] = make([][]protocol.MatchWire, np)
			for pi, n := range s.nodes {
				resp, err := (&service.CloudService{Server: n.svc.Server}).SearchWire(reqs[qi])
				if err != nil {
					return err
				}
				lists[qi][pi] = resp.Matches
			}
		}
		rep.addTopology("cluster.merge_us", p.perOp(microBatches, 2000, func(i int) error {
			cluster.MergeWire(lists[i%nq], topK)
			return nil
		})/1e3, "us")
		rep.addTopology("cluster.owner_ns", p.perOp(microBatches, 20000, func(i int) error {
			pmap.Owner(in.indices[i%len(in.indices)].DocID)
			return nil
		}), "ns")
	}

	if w.durable {
		// The result cache: SearchWire answered from a warm one, and the
		// cache's own calls.
		warm := &service.CloudService{Server: s.nodes[0].svc.Server, Cache: service.NewResultCache(cacheBytes)}
		for i := 0; i < nq; i++ {
			p.check(searchWire(warm)(i))
		}
		rep.addTopology("service.searchwire_hit_us", p.perOp(microBatches, 2000, searchWire(warm))/1e3, "us")
		cache := qcache.New[[]protocol.MatchWire](cacheBytes, 0)
		keys := make([]qcache.Key, 1024)
		for i := range keys {
			keys[i] = qcache.Fingerprint(params.R, topK, binary.BigEndian.AppendUint64(nil, uint64(i)))
		}
		rep.addTopology("qcache.put_ns", p.perOp(microBatches, len(keys), func(i int) error {
			cache.Put(keys[i%len(keys)], 1, wire0.Matches, 1024)
			return nil
		}), "ns")
		rep.addTopology("qcache.get_ns", p.perOp(microBatches, len(keys), func(i int) error {
			if _, ok := cache.Get(keys[i%len(keys)], 1); !ok {
				return fmt.Errorf("qcache: key %d stored and not found", i%len(keys))
			}
			return nil
		}), "ns")
	}
	if p.err != nil {
		return p.err
	}

	if w.durable {
		if err := s.durableTimings(rep, outDir, sideN); err != nil {
			return err
		}
	}
	if err := s.programTracing(rep, max(traceSearches/w.div, 5)); err != nil {
		return err
	}
	return s.retrieveTiming(rep)
}

// uploadMessage is the request service.UploadAll sends for one document.
func uploadMessage(si *core.SearchIndex, doc *core.EncryptedDocument) (*protocol.Message, error) {
	levels := make([][]byte, len(si.Levels))
	for i, l := range si.Levels {
		b, err := l.MarshalBinary()
		if err != nil {
			return nil, err
		}
		levels[i] = b
	}
	return &protocol.Message{UploadReq: &protocol.UploadRequest{
		DocID: si.DocID, Levels: levels, Ciphertext: doc.Ciphertext, EncKey: doc.EncKey,
	}}, nil
}

// durableTimings runs the storage layers on a side engine: logged uploads,
// a checkpoint, crash recovery with a log tail to replay, the snapshot
// format alone, and a short FsyncAlways run for the device's share.
func (s *system) durableTimings(rep *report, outDir string, n int) error {
	in, params := s.in, s.in.owner.Params()
	dir := filepath.Join(outDir, "side-"+s.w.name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// uploads logs docs [0, count) under prefixed IDs and returns the
	// median microseconds per upload.
	uploads := func(eng *durable.Engine, prefix string, count int) (float64, error) {
		vs := make([]float64, count)
		for i := range vs {
			si, doc := s.m.mint(prefix+in.indices[i].DocID, i)
			t0 := time.Now()
			err := eng.Upload(si, doc)
			vs[i] = us(time.Since(t0))
			if err != nil {
				return 0, err
			}
		}
		return medianOf(vs), nil
	}

	eng, err := durable.Open(filepath.Join(dir, "never"), params, engineOptions(0))
	if err != nil {
		return err
	}
	defer func() { eng.Crash() }()
	uploadUs, err := uploads(eng, "", n)
	if err != nil {
		return err
	}
	rep.addTopology("durable.upload_us", uploadUs, "us")
	rep.addTopology("durable.wal_bytes_per_doc", float64(eng.Stats().WALBytes)/float64(n), "B")
	if err := eng.Checkpoint(); err != nil {
		return err
	}
	st := eng.Stats()
	rep.addTopology("durable.checkpoint_pause_ms", ms(st.LastCheckpointPause), "ms")
	rep.addTopology("durable.checkpoint_write_ms", ms(st.LastCheckpointWrite), "ms")
	size, err := dirSize(eng.Dir())
	if err != nil {
		return err
	}
	rep.addTopology("durable.disk_bytes_per_doc", float64(size)/float64(n), "B")

	var snap bytes.Buffer
	t0 := time.Now()
	if err := store.Save(&snap, eng.Server()); err != nil {
		return err
	}
	rep.addTopology("store.save_us_per_doc", us(time.Since(t0))/float64(n), "us")
	t0 = time.Now()
	if _, err := store.Load(&snap); err != nil {
		return err
	}
	rep.addTopology("store.load_us_per_doc", us(time.Since(t0))/float64(n), "us")

	tail := min(sideTailDocs, n/4)
	if _, err := uploads(eng, "tail-", tail); err != nil {
		return err
	}
	if err := eng.Sync(); err != nil {
		return err
	}
	eng.Crash()
	t0 = time.Now()
	reopened, err := durable.Open(eng.Dir(), params, engineOptions(0))
	if err != nil {
		return err
	}
	eng = reopened // the deferred Crash now stops this one
	rep.addTopology("durable.recover_s", time.Since(t0).Seconds(), "s")
	if st = eng.Stats(); st.ReplayedOps != tail {
		return fmt.Errorf("side engine replayed %d records, logged %d after its checkpoint", st.ReplayedOps, tail)
	}
	rep.addTopology("durable.replay_docs_per_s", float64(st.ReplayedOps)/st.ReplayTime.Seconds(), "1/s")

	synced, err := durable.Open(filepath.Join(dir, "always"), params, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		return err
	}
	defer synced.Crash()
	fsyncUs, err := uploads(synced, "", min(fsyncOps, n))
	if err != nil {
		return err
	}
	rep.addTopology("durable.upload_fsync_us", fsyncUs, "us")
	return nil
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// programTracing turns the program's own tracing on (the daemons already
// continue propagated traces in a traced run) and compares forced-sample
// searches with plain ones, in alternating blocks.
func (s *system) programTracing(rep *report, perBlock int) error {
	nq := len(s.in.queries)
	s.client.Tracer = trace.New("client", 0, nil)
	defer func() { s.client.Tracer = nil }()

	var plain, traced, dark, scans []float64
	for block := 0; block < 4; block++ {
		for i := 0; i < perBlock; i++ {
			t0 := time.Now()
			if _, err := s.client.Search(s.in.queries[i%nq], topK); err != nil {
				return err
			}
			plain = append(plain, us(time.Since(t0)))
		}
		for i := 0; i < perBlock; i++ {
			t0 := time.Now()
			_, spans, err := s.client.TraceSearch(s.in.queries[i%nq], topK)
			if err != nil {
				return err
			}
			traced = append(traced, us(time.Since(t0)))
			d, sc := darkShare(spans)
			dark = append(dark, d)
			scans = append(scans, sc...)
		}
	}
	p, t := medianOf(plain), medianOf(traced)
	rep.add("trace.search_overhead_pct", 100*(t-p)/p, "%")
	rep.add("trace.dark_pct", medianOf(dark), "%")
	rep.add("trace.scan_span_us", medianOf(scans), "us")
	return nil
}

// darkShare returns the share of the program's client:search root span
// that its child spans do not cover, and the durations of the trace's scan
// spans.
func darkShare(spans []trace.Span) (pct float64, scanUs []float64) {
	var root *trace.Span
	for i := range spans {
		if spans[i].Name == "client:search" {
			root = &spans[i]
		}
	}
	if root == nil || root.Duration <= 0 {
		return 100, nil
	}
	var kids []trace.Span
	for _, sp := range spans {
		if sp.Name == "scan" {
			scanUs = append(scanUs, us(sp.Duration))
		}
		if sp.Parent == root.ID && sp.ID != root.ID {
			kids = append(kids, sp)
		}
	}
	slices.SortFunc(kids, func(a, b trace.Span) int { return a.Start.Compare(b.Start) })
	end := root.Start.Add(root.Duration)
	var covered time.Duration
	reach := root.Start
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Duration)
		if lo.Before(reach) {
			lo = reach
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			covered += hi.Sub(lo)
			reach = hi
		}
	}
	return 100 * float64(root.Duration-covered) / float64(root.Duration), scanUs
}

// retrieveTiming re-uploads a few live documents with really encrypted
// bodies and times the client's fetch plus blind-decryption exchange.
func (s *system) retrieveTiming(rep *report) error {
	n := min(retrieveDocs, len(s.m.liveIDs))
	items := make([]service.UploadItem, n)
	body := bytes.Repeat([]byte("ranked multi-keyword search "), 9)
	for i := range items {
		id := s.m.liveIDs[i]
		st := s.m.live[id]
		doc, err := s.in.owner.EncryptDocument(&corpus.Document{ID: id, Content: body})
		if err != nil {
			return err
		}
		items[i] = service.UploadItem{Index: &core.SearchIndex{DocID: id, Levels: s.in.indices[st.base].Levels}, Doc: doc}
		s.m.add(id, st.base, doc)
	}
	if err := service.UploadAllCluster(s.cfg, items); err != nil {
		return err
	}
	vs := make([]float64, n)
	for i, it := range items {
		t0 := time.Now()
		got, err := s.client.Retrieve(it.Doc.ID)
		vs[i] = ms(time.Since(t0))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, body) {
			return fmt.Errorf("retrieve %s: plaintext differs", it.Doc.ID)
		}
	}
	rep.add("client.retrieve_ms", medianOf(vs), "ms")
	return nil
}
