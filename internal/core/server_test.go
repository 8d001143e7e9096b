package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"weak"

	"mkse/internal/bitindex"
	"mkse/internal/corpus"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// searchReference replicates the pre-sharding implementation: scan every
// index in upload order, collect every match, fully sort by (rank desc,
// docID asc), then cut τ. The sharded engine is required to produce
// identical output.
func searchReference(t *testing.T, srv *Server, q *bitindex.Vector, tau int) []Match {
	t.Helper()
	var out []Match
	err := srv.Export(func(si *SearchIndex, _ *EncryptedDocument) error {
		if !si.Levels[0].Matches(q) {
			return nil
		}
		rank := 1
		for rank < len(si.Levels) {
			if !si.Levels[rank].Matches(q) {
				break
			}
			rank++
		}
		out = append(out, Match{DocID: si.DocID, Rank: rank})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank > out[j].Rank
		}
		return out[i].DocID < out[j].DocID
	})
	if tau > 0 && tau < len(out) {
		out = out[:tau]
	}
	return out
}

func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID || got[i].Rank != want[i].Rank {
			t.Fatalf("%s: match %d = (%s, %d), want (%s, %d)",
				label, i, got[i].DocID, got[i].Rank, want[i].DocID, want[i].Rank)
		}
	}
}

// uploadCorpus builds and uploads n documents to every given server.
func uploadCorpus(t *testing.T, o *Owner, n int, seed int64, servers ...*Server) []*corpus.Document {
	t.Helper()
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: n, KeywordsPerDoc: 12, Dictionary: corpus.Dictionary(300),
		MaxTermFreq: 15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		si, err := o.BuildIndex(d)
		if err != nil {
			t.Fatal(err)
		}
		enc := &EncryptedDocument{ID: d.ID, Ciphertext: []byte(d.ID), EncKey: []byte{1}}
		for _, srv := range servers {
			if err := srv.Upload(si, enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	return docs
}

// Sharded top-τ output must be byte-identical — order included — to the
// sort-based sequential baseline, for every shard/worker layout and τ.
func TestShardedSearchMatchesSequentialBaseline(t *testing.T) {
	o := sharedOwner(t)
	layouts := []struct{ shards, workers int }{
		{1, 1}, {2, 1}, {2, 2}, {4, 2}, {7, 16}, {16, 3},
	}
	servers := make([]*Server, len(layouts))
	for i, l := range layouts {
		srv, err := NewServerSharded(o.Params(), l.shards, l.workers)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	docs := uploadCorpus(t, o, 150, 23, servers...)

	u := newUserFor(t, o, "shard-prop")
	u.SeedQueryRNG(41)
	for qi := 0; qi < 8; qi++ {
		words := docs[qi*3].Keywords()[:1+qi%2]
		fetchTrapdoors(t, o, u, words)
		q, err := u.BuildQuery(words)
		if err != nil {
			t.Fatal(err)
		}
		want := searchReference(t, servers[0], q, 0)
		for li, srv := range servers {
			for _, tau := range []int{0, 1, 3, 10, 10000} {
				got, err := srv.SearchTop(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				ref := want
				if tau > 0 && tau < len(ref) {
					ref = ref[:tau]
				}
				matchesEqual(t, fmt.Sprintf("layout %d (%d shards), query %d, tau=%d",
					li, servers[li].NumShards(), qi, tau), got, ref)
			}
		}
	}
}

// SearchBatch result i must equal SearchTop(queries[i]), and batching must
// spend exactly the same number of binary comparisons as the sequential
// calls (the Table 2 accounting is batch-invariant).
func TestSearchBatchMatchesSearchTop(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	docs := uploadCorpus(t, o, 100, 29, srv)

	u := newUserFor(t, o, "batch-prop")
	u.SeedQueryRNG(43)
	var queries []*bitindex.Vector
	for qi := 0; qi < 6; qi++ {
		words := docs[qi*5].Keywords()[:2]
		fetchTrapdoors(t, o, u, words)
		q, err := u.BuildQuery(words)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, tau := range []int{0, 2, 7} {
		srv.Costs.Reset()
		results, err := srv.SearchBatch(context.Background(), queries, tau)
		if err != nil {
			t.Fatal(err)
		}
		batchCmps := srv.Costs.Snapshot().BinaryComparisons
		if len(results) != len(queries) {
			t.Fatalf("tau=%d: %d result sets for %d queries", tau, len(results), len(queries))
		}
		srv.Costs.Reset()
		for qi, q := range queries {
			want, err := srv.SearchTop(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, fmt.Sprintf("tau=%d query %d", tau, qi), results[qi], want)
		}
		if seqCmps := srv.Costs.Snapshot().BinaryComparisons; batchCmps != seqCmps {
			t.Errorf("tau=%d: batch spent %d comparisons, sequential %d", tau, batchCmps, seqCmps)
		}
	}

	if res, err := srv.SearchBatch(context.Background(), nil, 0); err != nil || res != nil {
		t.Errorf("empty batch: %v, %v", res, err)
	}
	if _, err := srv.SearchBatch(context.Background(), []*bitindex.Vector{queries[0], bitindex.New(8)}, 0); err == nil {
		t.Error("batch with wrong-size query accepted")
	}
}

func TestNewServerShardedLayouts(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if srv.NumShards() < 1 {
		t.Errorf("default layout has %d shards", srv.NumShards())
	}
	srv, err = NewServerSharded(o.Params(), 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if srv.NumShards() != 5 {
		t.Errorf("explicit layout has %d shards, want 5", srv.NumShards())
	}
	bad := o.Params()
	bad.R = -1
	if _, err := NewServerSharded(bad, 2, 2); err == nil {
		t.Error("invalid params accepted")
	}
}

// Upload order must survive sharding: Export and DocumentIDs iterate in
// global upload order, and re-uploads keep their original position.
func TestShardedUploadOrderPreserved(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wantIDs []string
	var lastSI *SearchIndex
	var lastEnc *EncryptedDocument
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("order-%02d", i)
		doc := &corpus.Document{ID: id, TermFreqs: map[string]int{"w": 1 + i%15}}
		si, enc, err := o.Prepare(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
		wantIDs = append(wantIDs, id)
		if i == 10 {
			lastSI, lastEnc = si, enc
		}
	}
	// Replace a middle document; its position must not move.
	if err := srv.Upload(lastSI, lastEnc); err != nil {
		t.Fatal(err)
	}
	if srv.NumDocuments() != 30 {
		t.Fatalf("NumDocuments = %d, want 30", srv.NumDocuments())
	}
	got := srv.DocumentIDs()
	if len(got) != len(wantIDs) {
		t.Fatalf("DocumentIDs returned %d ids, want %d", len(got), len(wantIDs))
	}
	for i := range wantIDs {
		if got[i] != wantIDs[i] {
			t.Fatalf("DocumentIDs[%d] = %s, want %s", i, got[i], wantIDs[i])
		}
	}
	i := 0
	err = srv.Export(func(si *SearchIndex, doc *EncryptedDocument) error {
		if si.DocID != wantIDs[i] || doc.ID != wantIDs[i] {
			return fmt.Errorf("export position %d is %s, want %s", i, si.DocID, wantIDs[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Concurrent Upload, Search, SearchBatch and Fetch from many goroutines must
// neither race (run with -race) nor corrupt results: after quiescence every
// search must agree with the sequential baseline.
func TestConcurrentUploadSearchFetch(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seedDocs := uploadCorpus(t, o, 40, 31, srv)

	u := newUserFor(t, o, "hammer")
	u.SeedQueryRNG(47)
	words := seedDocs[0].Keywords()[:2]
	fetchTrapdoors(t, o, u, words)
	var queries []*bitindex.Vector
	for i := 0; i < 4; i++ {
		q, err := u.BuildQuery(words)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	const writers, readers, iters = 3, 4, 25
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				doc := &corpus.Document{
					ID:        fmt.Sprintf("conc-%d-%d", w, i),
					TermFreqs: map[string]int{"kw": 1 + i%15, fmt.Sprintf("w%d", w): 2},
				}
				si, enc, err := o.Prepare(doc)
				if err != nil {
					errs <- err
					return
				}
				if err := srv.Upload(si, enc); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					if _, err := srv.SearchTop(queries[r%len(queries)], 5); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := srv.SearchBatch(context.Background(), queries, 5); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := srv.Fetch(seedDocs[i%len(seedDocs)].ID); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if want := 40 + writers*iters; srv.NumDocuments() != want {
		t.Fatalf("NumDocuments = %d, want %d", srv.NumDocuments(), want)
	}
	// Quiescent state must agree with the sequential baseline exactly.
	for qi, q := range queries {
		want := searchReference(t, srv, q, 0)
		got, err := srv.SearchTop(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, fmt.Sprintf("post-hammer query %d", qi), got, want)
	}
}

// The steady-state query path must be allocation-free outside of result
// assembly: a query with no matches allocates nothing, and a τ-cut query
// allocates only its result slice, one copy of the τ-cut. All scan scratch
// (sparse query forms, match flags, heaps, merge buffers) is pooled.
//
// The whole test runs with the scan hook installed the way the service
// installs it with metrics and tracing both on: a histogram observation (a
// bucket index plus two atomic adds into preallocated slots) and a "scan"
// span that no-ops on an unsampled context — so instrumentation must not
// cost the scan path a single allocation either.
func TestSearchScanPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	scanHist := telemetry.New().Histogram("test_scan_seconds", "scan timings", telemetry.RequestBuckets())
	observe := func(ctx context.Context, start time.Time, d time.Duration) {
		trace.AddCompleted(ctx, "scan", start, d, scanHist)
	}
	srv.ObserveScans(observe)
	docs := uploadCorpus(t, o, 200, 37, srv)

	u := newUserFor(t, o, "alloc-prop")
	u.SeedQueryRNG(53)
	words := docs[0].Keywords()[:2]
	fetchTrapdoors(t, o, u, words)
	hit, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	miss := bitindex.New(o.Params().R) // all-zero query matches nothing here

	if got := testing.AllocsPerRun(100, func() {
		if _, err := srv.SearchTop(miss, 5); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("no-match SearchTop allocates %.0f times per query, want 0", got)
	}

	res, err := srv.SearchTop(hit, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("test query matched nothing; pick different words")
	}
	// Result assembly: the result slice. Anything above that is scan-path
	// garbage.
	budget := 1.0
	if got := testing.AllocsPerRun(100, func() {
		if _, err := srv.SearchTop(hit, 5); err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("SearchTop with %d matches allocates %.0f times per query, want <= %.0f", len(res), got, budget)
	}

	// A SearchBatch of one — the service's one entry — costs at most two
	// allocations more than SearchTop: the result wrapper, and the query
	// wrapper when it escapes.
	batchOfOne := func(q *bitindex.Vector) {
		if _, err := srv.SearchBatch(context.Background(), []*bitindex.Vector{q}, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { batchOfOne(miss) }); got > 0+2 {
		t.Errorf("no-match SearchBatch of one allocates %.0f times per query, want <= 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { batchOfOne(hit) }); got > budget+2 {
		t.Errorf("SearchBatch of one with %d matches allocates %.0f times per query, want <= %.0f", len(res), got, budget+2)
	}

	// The multi-worker path must be equally clean: job dispatch to the
	// persistent shard-affine workers is by-value channel sends, and every
	// worker's scratch (row buffers, block bitmaps) is warm after the
	// first search.
	multi, err := NewServerSharded(o.Params(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	uploadCorpus(t, o, 200, 37, multi)
	for i := 0; i < 3; i++ { // spawn workers, warm every worker's scratch
		if _, err := multi.SearchTop(miss, 5); err != nil {
			t.Fatal(err)
		}
	}
	multi.ObserveScans(observe)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := multi.SearchTop(miss, 5); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("no-match multi-worker SearchTop allocates %.0f times per query, want 0", got)
	}

	// Every instrumented search above must actually have been observed — a
	// zero count would mean the histogram hook silently fell off and the
	// allocation assertions proved nothing about the telemetry-enabled path.
	if scanHist.Count() == 0 {
		t.Fatal("scan histogram observed nothing; the telemetry hook is disconnected")
	}
}

// A warm query build hashes nothing: the trapdoors come from the user's
// memo, leaving the query vector and the decoy draw as its only
// allocations.
func TestBuildQueryWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	o := sharedOwner(t)
	u := newUserFor(t, o, "warm-allocs")
	u.SeedQueryRNG(61)
	words := []string{"warm-a", "warm-b"}
	fetchTrapdoors(t, o, u, words)
	if _, err := u.BuildQuery(words); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := u.BuildQuery(words); err != nil {
			t.Fatal(err)
		}
	}); got > 6 {
		t.Errorf("warm BuildQuery allocates %.0f times, want <= 6", got)
	}
}

// A batch is one scan: SearchBatch calls the scan hook exactly once
// per batch, not once per query, and hands it the caller's context — the
// one a traced request's "scan" span must land in.
func TestSearchBatchObservesOneScanWithCallerContext(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	uploadCorpus(t, o, 20, 41, srv)

	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "batch")
	calls := 0
	srv.ObserveScans(func(got context.Context, start time.Time, d time.Duration) {
		calls++
		if got.Value(ctxKey{}) != "batch" {
			t.Error("scan hook did not receive the caller's context")
		}
		if start.IsZero() || d < 0 {
			t.Errorf("scan hook got start %v, duration %v", start, d)
		}
	})
	r := o.Params().R
	queries := []*bitindex.Vector{bitindex.New(r), bitindex.New(r), bitindex.New(r)}
	if _, err := srv.SearchBatch(ctx, queries, 5); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("a batch of %d queries called the scan hook %d times, want 1", len(queries), calls)
	}
}

// Every applied mutation — insert, in-place replacement, delete — must bump
// the mutation epoch before the call returns; failed mutations must not.
// The query-result cache's no-stale-results guarantee rests on this.
func TestEpochAdvancesOnEveryMutation(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Epoch(); got != 0 {
		t.Fatalf("fresh server epoch = %d", got)
	}
	docs := uploadCorpus(t, o, 5, 91, srv)
	if got := srv.Epoch(); got != 5 {
		t.Fatalf("epoch after 5 uploads = %d", got)
	}

	// Re-upload (in-place replacement) mutates visible state: must bump.
	si, err := o.BuildIndex(docs[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Upload(si, &EncryptedDocument{ID: docs[2].ID, Ciphertext: []byte("v2"), EncKey: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Epoch(); got != 6 {
		t.Fatalf("epoch after replacement = %d, want 6", got)
	}

	if err := srv.Delete(docs[0].ID); err != nil {
		t.Fatal(err)
	}
	if got := srv.Epoch(); got != 7 {
		t.Fatalf("epoch after delete = %d, want 7", got)
	}

	// Failed mutations leave the epoch alone: nothing changed.
	if err := srv.Delete("no-such-doc"); err == nil {
		t.Fatal("deleting unknown ID succeeded")
	}
	if err := srv.Upload(nil, nil); err == nil {
		t.Fatal("nil upload succeeded")
	}
	if got := srv.Epoch(); got != 7 {
		t.Fatalf("epoch after failed mutations = %d, want 7", got)
	}

	// Searches are reads: no bump.
	q := bitindex.New(o.Params().R)
	if _, err := srv.SearchTop(q, 5); err != nil {
		t.Fatal(err)
	}
	if got := srv.Epoch(); got != 7 {
		t.Fatalf("epoch after search = %d, want 7", got)
	}
}

// A dropped Server must release its store at once: its persistent scan
// workers outlive it until the Server's cleanup closes their channels, so
// an idle worker must not hold the shards, or the store survives into the
// GC cycles after the cleanup runs.
func TestDroppedServerReleasesShards(t *testing.T) {
	o := sharedOwner(t)
	shardRef := func() weak.Pointer[shard] {
		srv, err := NewServerSharded(o.Params(), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		uploadCorpus(t, o, 20, 41, srv)
		if _, err := srv.SearchTop(bitindex.NewOnes(o.Params().R), 5); err != nil {
			t.Fatal(err)
		}
		return weak.Make(srv.shards[1])
	}()
	runtime.GC()
	runtime.GC()
	if shardRef.Value() != nil {
		t.Fatal("a shard of a dropped server survived two GC cycles")
	}
}
