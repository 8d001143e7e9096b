package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/costs"
)

// ErrNotFound reports an operation on a document ID the server does not
// hold. Fetch and Delete wrap it so callers (the durable write-ahead log,
// the service layer) can distinguish "no such document" from real failures.
var ErrNotFound = errors.New("no such document")

// Server is the semi-honest cloud server of Figure 1. It stores encrypted
// documents, RSA-wrapped keys and search indices, and answers queries with
// the oblivious comparison of Equation 3 plus the level-walking rank
// assignment of Algorithm 1. It holds no key material: everything it stores
// and computes on is opaque. A Server is safe for concurrent use.
//
// # Sharded architecture
//
// The document store is split over a fixed set of shards, each with its own
// lock; a document's shard is a hash of its ID. Uploads, fetches and searches
// touching different shards never contend. Search fans the query out across
// shards with a bounded worker pool: every shard runs the Equation-3 match
// kernel over its own indices and keeps a local bounded top-τ heap keyed on
// (rank, docID); the per-shard winners are merged and cut to τ, and the
// cut is the result, copied out once. Binary-comparison cost
// accounting is batched into one atomic add per shard per query. For any
// fixed store state, results are identical — order included — to a
// sequential scan followed by a full (rank desc, docID asc) sort, whatever
// the shard and worker counts. Consistency under concurrent writes is
// per-shard, not global: a search overlapping in-flight writes sees each
// shard as it was when that shard was scanned, so it may observe a later
// upload while missing an earlier one on a different shard, and it returns
// a match whose document was deleted after its shard was scanned (the
// pre-sharding single lock made every search a point-in-time snapshot;
// Export retains that guarantee by locking all shards at once).
//
// # Word-major index arenas and the zero-word-skipping kernel
//
// Within a shard, every ranking level is one word-major arena:
// cols[l][w][row] is word w of row's level-(l+1) index, one contiguous
// []uint64 column per (level, word offset), and each index is stored once.
// Upload copies the index words into the columns (the caller's SearchIndex
// is not retained); re-uploading an existing ID overwrites its row in
// place, keeping its original upload-order position. Each query is
// preprocessed once into a bitindex.Sparse — the offsets of the few words
// where ¬q ≠ 0, the only words Equation 3 can fail on. The level-1 screen
// sweeps the level-1 columns with the blocked bitmap-refinement kernel
// (bitindex.AppendMatchingRowsColumns), and the Algorithm-1 level walk tests
// each survivor's active words in the higher levels' columns
// (Sparse.MatchesRow).
// Multi-shard scans are dispatched to persistent shard-affine workers —
// each worker goroutine owns a fixed subset of shards for the server's
// lifetime, so a shard's arenas are always rescanned by the same worker.
// Scan scratch (row buffers, block bitmaps, sparse forms, heaps, merge
// buffers) is pooled and reused, so steady-state searches allocate only
// their results.
//
// Uploaded documents are stored by reference and must not be mutated by the
// caller afterwards; search indices are copied into the columns at Upload.
type Server struct {
	params  Params
	workers int
	shards  []*shard

	seq atomic.Uint64 // global upload order, for Export/DocumentIDs

	// epoch counts applied mutations. It is bumped after a mutation is
	// applied and before the mutating call returns, so once an Upload or
	// Delete has been acknowledged, every later Epoch read observes a value
	// newer than any epoch read before the mutation — the invariant the
	// query-result cache (internal/qcache) builds its invalidation on.
	epoch atomic.Uint64

	scratch sync.Pool // *scanScratch, reused across searches

	// Persistent shard-affine scan workers, spawned on the first parallel
	// search. jobs[k] feeds the worker owning shards k, k+W, k+2W, … (W =
	// workers). An idle goroutine references only its channel, k and W —
	// not the Server and not its shards — so a cleanup attached to the
	// Server can close the channels and end them once the Server is
	// unreachable, and the store is freed with it.
	startWorkers sync.Once
	jobs         []chan scanJob

	// scanObs (ObserveScans) is the scan path's one instrumentation hook;
	// without it a search does not read the clock.
	scanObs atomic.Pointer[ScanObserverFunc]

	// Costs tallies server-side binary comparisons (Table 2) and traffic.
	Costs costs.Counters
}

// ScanObserverFunc receives one scan's request context, start time and
// duration (see ObserveScans).
type ScanObserverFunc func(ctx context.Context, start time.Time, d time.Duration)

// shard is one independently locked slice of the document store, laid out as
// parallel columns: row i of every slice and column describes one document.
//
// Every ranking level is stored word-major: cols[l][w][row] is word w of
// row's level-(l+1) index. The level-1 screen sweeps cols[0] with the blocked
// kernel, the level walk reads single rows of cols[1:], and Export gathers
// rows back into vectors.
type shard struct {
	mu   sync.RWMutex
	byID map[string]int // docID → row
	ids  []string
	seqs []uint64
	docs []*EncryptedDocument
	cols [][][]uint64 // cols[l][w][row], one column per (level, word offset)
}

// NewServer creates an empty server with one shard per GOMAXPROCS core.
func NewServer(p Params) (*Server, error) {
	return NewServerSharded(p, 0, 0)
}

// NewServerSharded creates an empty server with an explicit shard count and
// search worker-pool size. shards <= 0 defaults to GOMAXPROCS; workers <= 0
// defaults to min(shards, GOMAXPROCS). A single shard reproduces the
// monolithic layout (one lock, one scan).
func NewServerSharded(p Params, shards, workers int) (*Server, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	s := &Server{params: p, workers: workers, shards: make([]*shard, shards)}
	for i := range s.shards {
		sh := &shard{byID: make(map[string]int), cols: make([][][]uint64, p.Eta())}
		for l := range sh.cols {
			sh.cols[l] = make([][]uint64, bitindex.WordsFor(p.R))
		}
		s.shards[i] = sh
	}
	s.scratch.New = func() any { return new(scanScratch) }
	return s, nil
}

// Params returns the scheme parameters the server was configured with.
func (s *Server) Params() Params { return s.params }

// NumShards returns the number of store shards.
func (s *Server) NumShards() int { return len(s.shards) }

// Epoch returns the store's mutation epoch: a counter bumped by every
// applied Upload and Delete (wherever it originates — a client request, a
// WAL replay, a replicated record, a checkpoint install). A result computed
// at epoch E is valid exactly as long as Epoch still returns E. Callers
// caching search results must read the epoch before starting the scan; see
// internal/qcache.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// ObserveScans points the server's scan hook at fn: every subsequent search
// or batch search calls it once with the caller's context and the raw
// arena-scan timing (before any wire encoding or result caching). The
// service layer installs one closure feeding its scan histogram and trace
// spans, so core imports neither; it must not allocate, or searches stop
// being allocation-free. A nil fn removes the hook. Safe to call
// concurrently with searches.
func (s *Server) ObserveScans(fn ScanObserverFunc) {
	if fn == nil {
		s.scanObs.Store(nil)
		return
	}
	s.scanObs.Store(&fn)
}

// startScan loads the scan hook and reads the clock only if there is one.
func (s *Server) startScan() (*ScanObserverFunc, time.Time) {
	if obs := s.scanObs.Load(); obs != nil {
		return obs, time.Now()
	}
	return nil, time.Time{}
}

// endScan reports a scan begun by startScan to its observer, if any.
func endScan(ctx context.Context, obs *ScanObserverFunc, start time.Time) {
	if obs != nil {
		(*obs)(ctx, start, time.Since(start))
	}
}

// shardFor routes a document ID to its shard (inlined 32-bit FNV-1a — the
// hash/fnv object would heap-allocate on every Upload/Fetch).
func (s *Server) shardFor(docID string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(docID); i++ {
		h ^= uint32(docID[i])
		h *= 16777619
	}
	return s.shards[h%uint32(len(s.shards))]
}

// Upload stores one document's search index and encrypted payload. Both
// must refer to the same document ID; re-uploading an existing ID replaces
// it (an owner restarted on the same corpus re-uploads every document) in
// place, keeping its original upload-order position. The index words are copied into the
// shard's columns; the payload is stored by reference.
func (s *Server) Upload(si *SearchIndex, doc *EncryptedDocument) error {
	if si == nil || doc == nil {
		return fmt.Errorf("core: nil upload")
	}
	if err := si.Validate(s.params); err != nil {
		return err
	}
	if doc.ID != si.DocID {
		return fmt.Errorf("core: index is for %q but document is %q", si.DocID, doc.ID)
	}
	sh := s.shardFor(si.DocID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if row, ok := sh.byID[si.DocID]; ok {
		for l, v := range si.Levels {
			for w, word := range v.Words() {
				sh.cols[l][w][row] = word
			}
		}
		sh.docs[row] = doc
		s.epoch.Add(1) // after apply, before ack (see Epoch)
		return nil
	}
	sh.byID[si.DocID] = len(sh.ids)
	sh.ids = append(sh.ids, si.DocID)
	sh.seqs = append(sh.seqs, s.seq.Add(1))
	sh.docs = append(sh.docs, doc)
	for l, v := range si.Levels {
		for w, word := range v.Words() {
			sh.cols[l][w] = append(sh.cols[l][w], word)
		}
	}
	s.epoch.Add(1) // after apply, before ack (see Epoch)
	return nil
}

// Delete removes a stored document: its encrypted payload, wrapped key and
// every ranking level's index row. The freed rows are compacted by
// swap-remove — the shard's last row moves into the vacated slot and every
// column shrinks by one word — so scans never visit dead rows and a long
// delete-heavy workload cannot leak arena space (capacities are released
// once a shard falls to a quarter of its high-water mark). Deleting an
// unknown ID returns ErrNotFound. Delete does not reset the document's
// upload sequence: re-uploading the same ID later enrolls it as new, at the
// end of the upload order.
func (s *Server) Delete(docID string) error {
	sh := s.shardFor(docID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	row, ok := sh.byID[docID]
	if !ok {
		return fmt.Errorf("core: no document %q: %w", docID, ErrNotFound)
	}
	last := len(sh.ids) - 1
	if row != last {
		sh.ids[row] = sh.ids[last]
		sh.seqs[row] = sh.seqs[last]
		sh.docs[row] = sh.docs[last]
		sh.byID[sh.ids[row]] = row
		for _, level := range sh.cols {
			for _, col := range level {
				col[row] = col[last]
			}
		}
	}
	sh.ids = shrink(sh.ids[:last])
	sh.seqs = shrink(sh.seqs[:last])
	sh.docs[last] = nil // release the payload reference
	sh.docs = shrink(sh.docs[:last])
	for _, level := range sh.cols {
		for w := range level {
			level[w] = shrink(level[w][:last])
		}
	}
	delete(sh.byID, docID)
	s.epoch.Add(1) // after apply, before ack (see Epoch)
	return nil
}

// shrink reallocates a column whose length has fallen to a quarter of its
// capacity, so a store that grew large and was then mostly deleted returns
// the memory. Small columns are left alone.
func shrink[T any](s []T) []T {
	if cap(s) >= 64 && len(s)*4 <= cap(s) {
		return append(make([]T, 0, len(s)*2), s...)
	}
	return s
}

// NumDocuments returns the number of stored documents σ.
func (s *Server) NumDocuments() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.ids)
		sh.mu.RUnlock()
	}
	return n
}

// topTau accumulates the matches of one shard scan. With limit > 0 it is a
// bounded heap with the last kept match in Match.Before order at the root,
// holding the τ first seen so far; with limit <= 0 it collects everything.
type topTau struct {
	limit int
	c     []Match
}

func (h *topTau) add(c Match) {
	if h.limit <= 0 {
		h.c = append(h.c, c)
		return
	}
	if len(h.c) < h.limit {
		h.c = append(h.c, c)
		// Sift up.
		i := len(h.c) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.c[parent].Before(h.c[i]) {
				break
			}
			h.c[i], h.c[parent] = h.c[parent], h.c[i]
			i = parent
		}
		return
	}
	if !c.Before(h.c[0]) {
		return // incoming match comes no earlier than the last kept
	}
	// Replace the root and sift down.
	h.c[0] = c
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h.c) && h.c[min].Before(h.c[l]) {
			min = l
		}
		if r < len(h.c) && h.c[min].Before(h.c[r]) {
			min = r
		}
		if min == i {
			return
		}
		h.c[i], h.c[min] = h.c[min], h.c[i]
		i = min
	}
}

// scanScratch is the per-search working set, pooled on the Server so the
// steady-state query path performs no allocations beyond its results.
type scanScratch struct {
	sparse  []bitindex.Sparse  // preprocessed query forms (backing storage)
	qs      []*bitindex.Sparse // pointers into sparse, what the kernels take
	workers []workerScratch    // one per concurrent shard scanner
	heaps   []topTau           // per-shard × per-query heaps, flat
	cands   []Match            // merge buffer for the global τ-cut
	qbuf    []*bitindex.Vector // one-query wrapper for SearchTop
	out     [][]Match          // one-query result wrapper for SearchTop
	wg      sync.WaitGroup     // parallel-scan barrier, reused across searches
}

// workerScratch is the buffer set one scanning goroutine owns for the
// duration of a search.
type workerScratch struct {
	rows   []int32               // matching-row buffer for the arena scan kernel
	blocks bitindex.BlockScratch // survivor bitmaps for the blocked column kernel
	cmps   int64                 // comparisons this worker performed, read after wg.Wait
}

// queries sparsifies qs into the scratch, reusing prior backing storage.
func (sc *scanScratch) queries(qs []*bitindex.Vector) []*bitindex.Sparse {
	if cap(sc.sparse) < len(qs) {
		sc.sparse = make([]bitindex.Sparse, len(qs))
	}
	sc.sparse = sc.sparse[:len(qs)]
	sc.qs = sc.qs[:0]
	for i, q := range qs {
		q.SparsifyInto(&sc.sparse[i])
		sc.qs = append(sc.qs, &sc.sparse[i])
	}
	return sc.qs
}

// grids sizes the worker buffers and heap grid for a (workers × shards × nq)
// search with per-heap limit tau, recycling all prior backing storage.
func (sc *scanScratch) grids(workers, shards, nq, tau int) {
	if cap(sc.workers) < workers {
		sc.workers = append(sc.workers[:cap(sc.workers)], make([]workerScratch, workers-cap(sc.workers))...)
	}
	sc.workers = sc.workers[:workers]
	if need := shards * nq; cap(sc.heaps) < need {
		sc.heaps = append(sc.heaps[:cap(sc.heaps)], make([]topTau, need-cap(sc.heaps))...)
	}
	sc.heaps = sc.heaps[:shards*nq]
	for i := range sc.heaps {
		sc.heaps[i].limit = tau
		sc.heaps[i].c = sc.heaps[i].c[:0]
	}
}

// scan runs the Equation-3 match kernel and Algorithm-1 level walk over one
// shard for every query, feeding per-query heaps. It returns the number of
// r-bit comparisons performed so the caller can record them with a single
// atomic add per shard.
func (sh *shard) scan(qs []*bitindex.Sparse, ws *workerScratch, heaps []topTau) int64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var cmps int64
	rows := len(sh.ids)
	for qi, q := range qs {
		// One blocked column sweep per query: the kernel reads the first
		// active word of every row from one contiguous column (eight rows
		// per cache line), then refines only the surviving 64-row blocks
		// against the other active columns — so even a query batch is
		// cheaper as consecutive sequential sweeps than as a row-hot
		// multi-query loop with its per-row call overhead. Every row is
		// still one Equation-3 comparison for Table-2 accounting.
		ws.rows = q.AppendMatchingRowsColumns(sh.cols[0], rows, &ws.blocks, ws.rows[:0])
		cmps += int64(rows)
		for _, r := range ws.rows {
			cmps += sh.walkLevelsAt(q, int(r), &heaps[qi])
		}
	}
	return cmps
}

// walkLevelsAt assigns row's rank against q and records the candidate,
// returning the number of extra r-bit comparisons spent on levels ≥ 2.
func (sh *shard) walkLevelsAt(q *bitindex.Sparse, row int, heap *topTau) int64 {
	var cmps int64
	rank := 1
	for rank < len(sh.cols) {
		cmps++
		if !q.MatchesRow(sh.cols[rank], row) {
			break
		}
		rank++
	}
	heap.add(Match{DocID: sh.ids[row], Rank: rank})
	return cmps
}

// searchSharded fans qs out across shards with the worker pool and merges
// the per-shard winners into one rank-ordered, τ-cut result into out[i] for
// query i. out must be len(qs) long; entries for queries without matches
// are left nil, matching the sequential scan.
func (s *Server) searchSharded(sc *scanScratch, qs []*bitindex.Vector, tau int, out [][]Match) {
	nq := len(qs)
	workers := s.workers
	if workers <= 1 || len(s.shards) == 1 {
		workers = 1
	}
	sqs := sc.queries(qs)
	sc.grids(workers, len(s.shards), nq, tau)

	if workers == 1 {
		// Kept free of func literals: a `go` closure anywhere in a function
		// heap-allocates its captures even on branches that never spawn it,
		// and this branch is the single-query hot path.
		for i := range s.shards {
			cmps := s.shards[i].scan(sqs, &sc.workers[0], sc.heaps[i*nq:(i+1)*nq])
			s.Costs.BinaryComparisons.Add(cmps)
		}
	} else {
		s.scanParallel(sqs, sc, nq, workers)
	}

	for qi := range qs {
		cands := sc.cands[:0]
		for si := 0; si < len(s.shards); si++ {
			cands = append(cands, sc.heaps[si*nq+qi].c...)
		}
		slices.SortFunc(cands, Match.compare)
		if tau > 0 && tau < len(cands) {
			cands = cands[:tau]
		}
		sc.cands = cands[:0]
		if len(cands) > 0 { // otherwise out[qi] stays nil, matching the sequential scan
			out[qi] = slices.Clone(cands)
		}
	}
}

// scanJob is one search's worth of work for one persistent scan worker: scan
// every shard the worker owns with sqs, feed heaps, leave the comparison
// count in ws.cmps, and signal wg. All fields are owned by the dispatching
// search until wg is signalled. The job, not the worker, carries the
// shards, so an idle worker keeps none of them alive.
type scanJob struct {
	shards []*shard
	sqs    []*bitindex.Sparse
	heaps  []topTau // full shard × query grid; indexed by global shard number
	nq     int
	ws     *workerScratch
	wg     *sync.WaitGroup
}

// scanParallel dispatches one job per persistent shard-affine worker and
// waits for all of them. Persistent workers keep the goroutine stack and
// scheduler state warm across searches and pin each shard to one worker.
// Comparison counts are accumulated in each worker's scratch and folded into
// Costs here with a single atomic add per search.
func (s *Server) scanParallel(sqs []*bitindex.Sparse, sc *scanScratch, nq, workers int) {
	s.startWorkers.Do(s.spawnWorkers)
	sc.wg.Add(workers)
	for k := 0; k < workers; k++ {
		s.jobs[k] <- scanJob{shards: s.shards, sqs: sqs, heaps: sc.heaps, nq: nq, ws: &sc.workers[k], wg: &sc.wg}
	}
	sc.wg.Wait()
	var cmps int64
	for k := 0; k < workers; k++ {
		cmps += sc.workers[k].cmps
	}
	s.Costs.BinaryComparisons.Add(cmps)
}

// spawnWorkers starts the persistent scan workers. Worker k owns shards
// k, k+W, k+2W, … — a fixed assignment, so every rescan of a shard touches
// memory the same goroutine last walked. The workers hold no reference to
// the Server or its shards (only their job channel, k and W), letting the
// attached cleanup close the channels — and end the goroutines — once the
// Server itself is unreachable.
func (s *Server) spawnWorkers() {
	s.jobs = make([]chan scanJob, s.workers)
	for k := range s.jobs {
		jobs := make(chan scanJob, 1)
		s.jobs[k] = jobs
		go scanWorker(jobs, k, s.workers)
	}
	runtime.AddCleanup(s, stopWorkers, s.jobs)
}

// stopWorkers closes every job channel, ending the persistent workers. It
// runs as the Server's cleanup; by then no search can be in flight (a
// search holds the Server reachable), so no send can race the close.
func stopWorkers(jobs []chan scanJob) {
	for _, ch := range jobs {
		close(ch)
	}
}

// scanWorker is the persistent scan loop: one job per search, covering
// shards k, k+w, k+2w, … of the job's shard slice.
func scanWorker(jobs <-chan scanJob, k, w int) {
	for j := range jobs {
		var cmps int64
		for si := k; si < len(j.shards); si += w {
			cmps += j.shards[si].scan(j.sqs, j.ws, j.heaps[si*j.nq:(si+1)*j.nq])
		}
		j.ws.cmps = cmps
		j.wg.Done()
	}
}

// SearchBatch runs the ranked oblivious search of Algorithm 1 for every
// query in one sharded pass over the store: a document matches a query if
// its level-1 index matches it (Equation 3); its rank is the highest
// consecutive level that still matches. Result i holds queries[i]'s top-τ
// matches ("the user can retrieve only the top τ matches where τ is chosen
// by the user", Section 5) in descending rank order, ties broken by
// document ID; τ ≤ 0 returns every match. Each shard retains at most τ
// matches per query, and only the global survivors are copied out.
//
// ctx is the request context handed to the scan observer (ObserveScans),
// once per batch, so a traced request's scan span lands in its trace. It
// does not cancel the scan.
func (s *Server) SearchBatch(ctx context.Context, queries []*bitindex.Vector, tau int) ([][]Match, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	out := make([][]Match, len(queries))
	sc := s.scratch.Get().(*scanScratch)
	err := s.search(ctx, sc, queries, tau, out)
	s.scratch.Put(sc)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SearchTop is a SearchBatch of the one query q that allocates nothing
// but the returned matches: the query and result wrappers are pooled.
func (s *Server) SearchTop(q *bitindex.Vector, tau int) ([]Match, error) {
	sc := s.scratch.Get().(*scanScratch)
	sc.qbuf = append(sc.qbuf[:0], q)
	sc.out = append(sc.out[:0], nil)
	err := s.search(context.Background(), sc, sc.qbuf, tau, sc.out)
	res := sc.out[0]
	sc.out[0], sc.qbuf[0] = nil, nil
	s.scratch.Put(sc)
	return res, err
}

// search validates queries, then scans the store once for all of them into
// out, reporting the scan to the observer.
func (s *Server) search(ctx context.Context, sc *scanScratch, queries []*bitindex.Vector, tau int, out [][]Match) error {
	for i, q := range queries {
		if q == nil || q.Len() != s.params.R {
			return fmt.Errorf("core: query %d must be %d bits", i, s.params.R)
		}
	}
	obs, start := s.startScan()
	s.searchSharded(sc, queries, tau, out)
	endScan(ctx, obs, start)
	return nil
}

// Fetch returns a stored encrypted document by ID (step 3 of Figure 1).
func (s *Server) Fetch(docID string) (*EncryptedDocument, error) {
	sh := s.shardFor(docID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.byID[docID]
	if !ok {
		return nil, fmt.Errorf("core: no document %q: %w", docID, ErrNotFound)
	}
	return sh.docs[row], nil
}

// exported pairs a materialized search index with its payload and upload
// sequence number, for the snapshot paths.
type exported struct {
	seq uint64
	si  *SearchIndex
	doc *EncryptedDocument
}

// materializeLocked rebuilds row's SearchIndex from the columns. The caller
// must hold at least a read lock on the shard.
func (sh *shard) materializeLocked(row, nbits int) *SearchIndex {
	si := &SearchIndex{DocID: sh.ids[row], Levels: make([]*bitindex.Vector, len(sh.cols))}
	for l, level := range sh.cols {
		si.Levels[l] = bitindex.FromColumns(nbits, level, row)
	}
	return si
}

// snapshotOrdered collects every stored document across shards in global
// upload order, materializing each search index from the arenas. All shard
// read locks are held simultaneously while copying so the snapshot is a
// consistent point in time, as under the pre-sharding single lock (every
// other path locks at most one shard, so acquiring them in slice order
// cannot deadlock).
func (s *Server) snapshotOrdered() []exported {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	var all []exported
	for _, sh := range s.shards {
		for row := range sh.ids {
			all = append(all, exported{seq: sh.seqs[row], si: sh.materializeLocked(row, s.params.R), doc: sh.docs[row]})
		}
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}

// Export iterates over every stored document in upload order, passing its
// search index and encrypted payload to fn. It is the hook persistence
// layers (internal/store, internal/durable) snapshot the server through;
// iteration stops at the first error. The callback must not mutate the
// arguments, but it may retain them: the SearchIndex is materialized fresh
// for each call and the EncryptedDocument is immutable under the Upload
// contract — the durable checkpointer relies on this to capture a snapshot
// under lock and serialize it after release.
func (s *Server) Export(fn func(*SearchIndex, *EncryptedDocument) error) error {
	for _, d := range s.snapshotOrdered() {
		if err := fn(d.si, d.doc); err != nil {
			return err
		}
	}
	return nil
}

// DocumentIDs lists stored document IDs in upload order, for tooling. Unlike
// Export it copies no index words, only IDs and sequence numbers.
func (s *Server) DocumentIDs() []string {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	type seqID struct {
		seq uint64
		id  string
	}
	var all []seqID
	for _, sh := range s.shards {
		for row, id := range sh.ids {
			all = append(all, seqID{seq: sh.seqs[row], id: id})
		}
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.id
	}
	return out
}
