package service

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/telemetry"
)

// The cache tests exercise result memoization, not cryptography: like the
// replication tests they feed random valid indices straight into the store
// and judge correctness by byte-identical wire output between the cached
// path and a fresh uncached scan of the same server.

// uncachedWire computes the ground truth for one wire query: a direct scan
// of the server, bypassing the cache entirely.
func uncachedWire(t testing.TB, srv *core.Server, raw []byte, tau int) []protocol.MatchWire {
	t.Helper()
	q, err := unmarshalVector(raw)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := srv.SearchTop(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	return matchesToWire(ms)
}

// cacheQuery builds a wire query guaranteed to match the given index (its
// zero bits are drawn from the index's own level-1 zero set).
func cacheQuery(rng *rand.Rand, p core.Params, si *core.SearchIndex) []byte {
	q := bitindex.NewOnes(p.R)
	zp := si.Levels[0].ZeroPositions()
	for _, j := range rng.Perm(len(zp))[:3] {
		q.SetBit(zp[j], 0)
	}
	return marshalVector(q)
}

// TestCachedSearchAgreesAcrossInterleavings is the cache-correctness
// property test: across hundreds of random upload/re-upload/delete/search
// interleavings — with a repeat-heavy query pool so the cache actually
// hits — every SearchWire and SearchBatchWire result must be byte-identical
// to an uncached scan of the store at that moment. A single stale entry
// served after a mutation fails the comparison immediately.
func TestCachedSearchAgreesAcrossInterleavings(t *testing.T) {
	p := replParams()
	srv, err := core.NewServerSharded(p, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc := &CloudService{Server: srv, Cache: NewResultCache(1 << 20)}
	rng := rand.New(rand.NewSource(101))

	type pooledQuery struct {
		raw []byte
		tau int
	}
	var (
		live    []string
		indices = map[string]*core.SearchIndex{}
		pool    []pooledQuery
		nextID  int
		taus    = []int{0, 3, 10}
	)
	upload := func(id string) {
		si := replIndex(rng, p, id)
		indices[id] = si
		if err := srv.Upload(si, &core.EncryptedDocument{ID: id, Ciphertext: []byte(id), EncKey: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	for ; nextID < 8; nextID++ {
		id := fmt.Sprintf("d-%04d", nextID)
		upload(id)
		live = append(live, id)
	}
	refreshPool := func() {
		id := live[rng.Intn(len(live))]
		q := pooledQuery{raw: cacheQuery(rng, p, indices[id]), tau: taus[rng.Intn(len(taus))]}
		if len(pool) < 6 {
			pool = append(pool, q)
		} else {
			pool[rng.Intn(len(pool))] = q
		}
	}
	for i := 0; i < 6; i++ {
		refreshPool()
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(12); {
		case op < 5: // single search, repeat-heavy
			q := pool[rng.Intn(len(pool))]
			resp, err := svc.SearchWire(&protocol.SearchRequest{Query: q.raw, TopK: q.tau})
			if err != nil {
				t.Fatalf("step %d: search: %v", step, err)
			}
			want := uncachedWire(t, srv, q.raw, q.tau)
			if !reflect.DeepEqual(resp.Matches, want) {
				t.Fatalf("step %d: cached search diverged from uncached scan\n got %v\nwant %v", step, resp.Matches, want)
			}
		case op < 7: // batch search with deliberate duplicates
			tau := taus[rng.Intn(len(taus))]
			n := 2 + rng.Intn(4)
			raws := make([][]byte, n)
			for i := range raws {
				raws[i] = pool[rng.Intn(len(pool))].raw
			}
			raws[rng.Intn(n)] = raws[0] // force at least one duplicate pair
			resp, err := svc.SearchBatchWire(context.Background(), &protocol.SearchBatchRequest{Queries: raws, TopK: tau})
			if err != nil {
				t.Fatalf("step %d: batch: %v", step, err)
			}
			for i, raw := range raws {
				want := uncachedWire(t, srv, raw, tau)
				if !reflect.DeepEqual(resp.Results[i], want) {
					t.Fatalf("step %d: batch slot %d diverged from uncached scan", step, i)
				}
			}
		case op < 9: // upload a new document
			id := fmt.Sprintf("d-%04d", nextID)
			nextID++
			upload(id)
			live = append(live, id)
			refreshPool()
		case op < 10: // replace an existing document's index in place
			upload(live[rng.Intn(len(live))])
		default: // delete
			if len(live) <= 2 {
				continue
			}
			i := rng.Intn(len(live))
			if err := srv.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			delete(indices, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}

	st := svc.Cache.Stats()
	if st.Hits == 0 {
		t.Fatal("property run never hit the cache; the test exercised nothing")
	}
	if st.Invalidations == 0 {
		t.Fatal("property run never invalidated an entry; mutations were not interleaved with repeats")
	}
	t.Logf("cache after interleavings: %+v", st)
}

// TestSearchBatchDuplicateSlotsAgree: with no cache configured, a batch
// that repeats a query vector answers every repeated slot with the same
// result, and that result is what the batch of distinct queries returns.
// (Every slot is scanned on its own: a correct client never repeats a
// query vector, since each ANDs in a fresh decoy subset.)
func TestSearchBatchDuplicateSlotsAgree(t *testing.T) {
	p := replParams()
	srv, err := core.NewServerSharded(p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc := &CloudService{Server: srv} // cache deliberately nil
	rng := rand.New(rand.NewSource(55))
	var sis []*core.SearchIndex
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("d-%03d", i)
		si := replIndex(rng, p, id)
		sis = append(sis, si)
		if err := srv.Upload(si, &core.EncryptedDocument{ID: id, Ciphertext: []byte(id), EncKey: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	q1 := cacheQuery(rng, p, sis[0])
	q2 := cacheQuery(rng, p, sis[1])

	distinct, err := svc.SearchBatchWire(context.Background(), &protocol.SearchBatchRequest{Queries: [][]byte{q1, q2}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := svc.SearchBatchWire(context.Background(), &protocol.SearchBatchRequest{Queries: [][]byte{q1, q1, q2, q1, q2}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}

	if len(dup.Results) != 5 {
		t.Fatalf("%d result sets for 5 slots", len(dup.Results))
	}
	for _, i := range []int{1, 3} {
		if !reflect.DeepEqual(dup.Results[i], dup.Results[0]) {
			t.Fatalf("duplicate slot %d differs from slot 0", i)
		}
	}
	if !reflect.DeepEqual(dup.Results[0], distinct.Results[0]) || !reflect.DeepEqual(dup.Results[2], distinct.Results[1]) {
		t.Fatal("duplicate-slot batch results differ from the distinct batch")
	}
	if !reflect.DeepEqual(dup.Results[4], dup.Results[2]) {
		t.Fatal("second q2 slot differs from the first")
	}
}

// TestSearchRequestIsABatchOfOne: the single-query SearchRequest frame over
// TCP, SearchWire and a SearchBatchWire of one are one search path — they
// return the matches an uncached scan returns, with and without a Cache —
// and both search frames count under the one verb="search" series.
func TestSearchRequestIsABatchOfOne(t *testing.T) {
	p := replParams()
	srv, err := core.NewServerSharded(p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	var queries [][]byte
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("d-%03d", i)
		si := replIndex(rng, p, id)
		if err := srv.Upload(si, &core.EncryptedDocument{ID: id, Ciphertext: []byte(id), EncKey: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			queries = append(queries, cacheQuery(rng, p, si))
		}
	}
	for _, cache := range []*ResultCache{nil, NewResultCache(1 << 20)} {
		svc := &CloudService{Server: srv, Cache: cache}
		reg := telemetry.New()
		svc.EnableMetrics(reg)
		addr := serveLoopback(t, svc.Serve)
		for qi, q := range queries {
			want := uncachedWire(t, srv, q, 5)
			if len(want) == 0 {
				t.Fatalf("query %d matched nothing; the comparison would prove nothing", qi)
			}
			frame := exchange(t, addr, &protocol.Message{SearchReq: &protocol.SearchRequest{Query: q, TopK: 5}})
			batchFrame := exchange(t, addr, &protocol.Message{SearchBatchReq: &protocol.SearchBatchRequest{Queries: [][]byte{q}, TopK: 5}})
			if frame.SearchResp == nil || batchFrame.SearchBatchResp == nil || len(batchFrame.SearchBatchResp.Results) != 1 {
				t.Fatalf("query %d: search frames answered %+v and %+v", qi, frame, batchFrame)
			}
			wire, err := svc.SearchWire(&protocol.SearchRequest{Query: q, TopK: 5})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := svc.SearchBatchWire(context.Background(), &protocol.SearchBatchRequest{Queries: [][]byte{q}, TopK: 5})
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]protocol.MatchWire{
				"SearchRequest frame":      frame.SearchResp.Matches,
				"SearchBatchRequest frame": batchFrame.SearchBatchResp.Results[0],
				"SearchWire":               wire.Matches,
				"SearchBatchWire of one":   batch.Results[0],
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cache=%t query %d: %s returned %v, want %v", cache != nil, qi, name, got, want)
				}
			}
		}
		scrape := reg.Render()
		if want := fmt.Sprintf(`mkse_request_duration_seconds_count{verb="search"} %d`, 2*len(queries)); !strings.Contains(scrape, want) {
			t.Errorf("cache=%t: scrape missing %q", cache != nil, want)
		}
		if strings.Contains(scrape, "searchbatch") {
			t.Errorf("cache=%t: a batch search counted under its own verb", cache != nil)
		}
	}
}

// TestCacheConcurrentWithMutationsAndCheckpoints is the -race suite:
// searchers hammer the cached path while writers upload and delete through
// the durable engine and a checkpointer cuts snapshots. After the dust
// settles, a warm cached result must still equal a fresh scan.
func TestCacheConcurrentWithMutationsAndCheckpoints(t *testing.T) {
	p := replParams()
	eng, err := durable.Open(t.TempDir(), p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	svc := &CloudService{Server: eng.Server(), Store: eng, Cache: NewResultCache(1 << 20)}

	seedRng := rand.New(rand.NewSource(77))
	var sis []*core.SearchIndex
	for i := 0; i < 40; i++ {
		sis = append(sis, replUpload(t, eng, seedRng, p, fmt.Sprintf("seed-%03d", i)))
	}
	queries := make([][]byte, 8)
	for i := range queries {
		queries[i] = cacheQuery(seedRng, p, sis[i])
	}

	const iters = 250
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ { // searchers: singles and batches, shared query pool
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < iters; i++ {
				q := queries[rng.Intn(len(queries))]
				if i%3 == 0 {
					batch := [][]byte{q, queries[rng.Intn(len(queries))], q}
					if _, err := svc.SearchBatchWire(context.Background(), &protocol.SearchBatchRequest{Queries: batch, TopK: 10}); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := svc.SearchWire(&protocol.SearchRequest{Query: q, TopK: 10}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // uploader: new docs and in-place replacements
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for i := 0; i < iters; i++ {
			id := fmt.Sprintf("w-%03d", i%60)
			si := replIndex(rng, p, id)
			if err := eng.Upload(si, &core.EncryptedDocument{ID: id, Ciphertext: []byte(id), EncKey: []byte{1}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // deleter: seeded docs the searchers' queries may match
		defer wg.Done()
		for i := 20; i < 20+iters/10; i++ {
			if err := eng.Delete(fmt.Sprintf("seed-%03d", i%40)); err != nil {
				// Already deleted on a previous lap — fine.
				continue
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // checkpointer
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := eng.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()

	// Quiesced: warm every query, then verify hits against fresh scans.
	for _, q := range queries {
		if _, err := svc.SearchWire(&protocol.SearchRequest{Query: q, TopK: 10}); err != nil {
			t.Fatal(err)
		}
		resp, err := svc.SearchWire(&protocol.SearchRequest{Query: q, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		if want := uncachedWire(t, eng.Server(), q, 10); !reflect.DeepEqual(resp.Matches, want) {
			t.Fatal("post-hammer cached result differs from a fresh scan")
		}
	}
	if st := svc.Cache.Stats(); st.Hits == 0 {
		t.Fatalf("hammer never hit the cache: %+v", st)
	}
}

// TestFollowerCacheInvalidatedByReplication pins the follower story: a
// follower's cache entries are keyed off its own mutation epoch, so a
// replicated apply — an upload or delete the follower never saw as a client
// request — invalidates them exactly like a local mutation would.
func TestFollowerCacheInvalidatedByReplication(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(120))
	pr := startReplPrimary(t, p, t.TempDir())

	siA := replUpload(t, pr.eng, rng, p, "doc-a")
	fo := startReplFollower(t, p, t.TempDir(), pr.addr)
	fo.svc.Cache = NewResultCache(1 << 20)
	waitConverged(t, pr.eng, fo.eng)

	q := cacheQuery(rng, p, siA)
	search := func() []protocol.MatchWire {
		t.Helper()
		resp, err := fo.svc.SearchWire(&protocol.SearchRequest{Query: q, TopK: 0})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Matches
	}
	first := search()
	if len(first) == 0 {
		t.Fatal("query missed doc-a on the follower")
	}
	second := search()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm result differs from cold")
	}
	if st := fo.svc.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("repeat search did not hit the follower cache: %+v", st)
	}

	// A second document with doc-a's zero layout also matches q. It arrives
	// only via the replication stream; the follower's cached result must not
	// survive it.
	siB := &core.SearchIndex{DocID: "doc-b", Levels: make([]*bitindex.Vector, p.Eta())}
	for l := range siB.Levels {
		siB.Levels[l] = siA.Levels[l].Clone()
	}
	if err := pr.eng.Upload(siB, &core.EncryptedDocument{ID: "doc-b", Ciphertext: []byte("b"), EncKey: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, pr.eng, fo.eng)

	after := search()
	foundB := false
	for _, m := range after {
		if m.DocID == "doc-b" {
			foundB = true
		}
	}
	if !foundB {
		t.Fatalf("follower served a stale cached result after a replicated upload: %v", after)
	}
	if want := uncachedWire(t, fo.eng.Server(), q, 0); !reflect.DeepEqual(after, want) {
		t.Fatal("post-replication result differs from a fresh follower scan")
	}
	if st := fo.svc.Cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("replicated apply did not invalidate the follower cache: %+v", st)
	}

	// Replicated deletes invalidate too.
	if err := pr.eng.Delete("doc-a"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, pr.eng, fo.eng)
	final := search()
	for _, m := range final {
		if m.DocID == "doc-a" {
			t.Fatal("follower served deleted doc-a from its cache")
		}
	}
}

// TestStatsVerbOverTCP drives the stats verb end to end against a cached
// daemon: counters move with traffic, and the raw (enrollment-free)
// FetchStats path works for operators.
func TestStatsVerbOverTCP(t *testing.T) {
	p := replParams()
	srv, err := core.NewServerSharded(p, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc := &CloudService{Server: srv, Cache: NewResultCache(1 << 20)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = svc.Serve(l) }()

	rng := rand.New(rand.NewSource(130))
	var si *core.SearchIndex
	for i := 0; i < 7; i++ {
		id := fmt.Sprintf("d-%03d", i)
		si = replIndex(rng, p, id)
		if err := srv.Upload(si, &core.EncryptedDocument{ID: id, Ciphertext: []byte(id), EncKey: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)

	// Two identical searches over the wire: one miss, one hit.
	q := cacheQuery(rng, p, si)
	for i := 0; i < 2; i++ {
		if _, err := pc.Roundtrip(&protocol.Message{SearchReq: &protocol.SearchRequest{Query: q, TopK: 5}}); err != nil {
			t.Fatal(err)
		}
	}

	st, err := FetchStats(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if st.NumDocuments != 7 || st.NumShards != 4 {
		t.Fatalf("stats report %d documents / %d shards, want 7 / 4", st.NumDocuments, st.NumShards)
	}
	if st.Epoch != 7 {
		t.Fatalf("stats epoch = %d, want 7 (one per upload)", st.Epoch)
	}
	if st.Durable || st.Replica {
		t.Fatalf("memory-only daemon claims durability or replica-hood: %+v", st)
	}
	if !st.Cache.Enabled || st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache counters %+v, want enabled with 1 hit / 1 miss / 1 entry", st.Cache)
	}
	if st.Cache.MaxBytes != 1<<20 || st.Cache.Bytes <= 0 {
		t.Fatalf("cache accounting %+v", st.Cache)
	}

	// The enrolled-client path reports the same view, cache disabled there.
	d := sharedDeployment(t)
	client, err := Dial(freshUser("stats-user"), d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cst, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Cache.Enabled {
		t.Fatal("cacheless deployment reports an enabled cache")
	}
	if cst.NumDocuments != d.server.NumDocuments() {
		t.Fatalf("client stats report %d documents, server holds %d", cst.NumDocuments, d.server.NumDocuments())
	}
}
