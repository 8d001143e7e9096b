package main

import (
	"fmt"
	"math/rand"
	"slices"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/rank"
)

// Fixed across workloads.
const (
	topK           = 10 // τ of every timed search
	numQueries     = 64 // distinct 2-keyword queries per run
	keywordsPerDoc = 20 // genuine keywords per document
	dictionarySize = 4000
	ciphertextLen  = 256 // stored ciphertext bytes per document
	encKeyLen      = 128 // RSA-1024 wrapped key bytes per document

	// A run sets the system up passes times; each pass discards one warm-up
	// round and times roundsPerPass more, nine timed rounds in all. The
	// counts are fixed: a faster or slower build or host runs exactly the
	// same operations against exactly the same states.
	passes        = 3
	roundsPerPass = 3
	tracedPairs   = 3    // plain and hand-assembled rounds of a traced run, alternating
	allocSearches = 1000 // searches in the trailing allocation round
	gateQueries   = 32   // queries replayed by the correctness gate

	// Durable partitions checkpoint after this many mutations: twice per
	// partition per mixed_churn round (124 mutations each), so every round
	// carries the same checkpoint load.
	checkpointOps = 60
	cacheBytes    = 64 << 20 // result cache per durable partition
)

// workload is one fixed traffic mix. Every count is an operation count;
// nothing in a round depends on how long it takes.
type workload struct {
	name string

	built      int // documents the owner indexes
	copies     int // every built index is stored under this many doc IDs
	partitions int
	durable    bool // WAL-backed partitions (FsyncNever) with a result cache

	searches int // searches per timed round
	div      int // 1 in a real run; the tests divide the counts by it

	// Churn schedule, all zero on read-only workloads: after every
	// uploadEvery-th search uploadBatch new documents are uploaded, after
	// every deleteEvery-th search deleteBatch live ones are deleted.
	uploadEvery, uploadBatch int
	deleteEvery, deleteBatch int
}

// The four workloads. Each stresses a different layer, so an optimisation
// has one workload that exercises it and one where the prediction is no
// change (README.md says which is which). Round sizes put a round at about
// a second on a 2-core shared Xeon, and a whole run (three set-ups, twelve
// rounds, the allocation round and the gate) under 30 s.
var workloads = []workload{
	// The scan is a few percent of a search: client query build, gob codec,
	// dispatch and loopback do the work.
	{name: "wire_small", built: 5000, copies: 1, partitions: 1, searches: 1500},
	// 12 500 built indices stored 32 times each, so the scan sweeps 400 000
	// rows (its largest share of a search) while BuildIndexes stays cheap
	// enough to be paid three times a run.
	{name: "scan_large", built: 12500, copies: 32, partitions: 1, searches: 200},
	// Same client and codec, four concurrent partition RPCs and a merge.
	{name: "scatter_p4", built: 20000, copies: 1, partitions: 4, searches: 500},
	// Writes beside reads on durable cached partitions: 200 documents
	// uploaded and 48 deleted per round, two checkpoints per partition per
	// round.
	{name: "mixed_churn", built: 20000, copies: 1, partitions: 2, durable: true, searches: 500,
		uploadEvery: 20, uploadBatch: 8, deleteEvery: 40, deleteBatch: 4},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload for the package's own tests: 1/div of the
// documents, searches and probe iterations, keeping enough searches that
// the churn schedule still fires both kinds of mutation. A real run has
// div 1; no flag sets it.
func (w workload) scaled(div int) workload {
	w.div = max(div, 1)
	if w.div > 1 {
		w.built = max(w.built/w.div, 50)
		w.searches = max(w.searches/w.div, 40)
	}
	return w
}

// allocSearches is the length of the trailing allocation round.
func (w workload) allocSearches() int { return max(allocSearches/w.div, 20) }

func (w workload) docs() int { return w.built * w.copies }

func (w workload) churns() bool { return w.uploadEvery > 0 }

// opsPerRound is the fixed number of timed operations in one round:
// searches plus documents uploaded plus documents deleted.
func (w workload) opsPerRound() int {
	ops := w.searches
	if w.churns() {
		ops += w.searches / w.uploadEvery * w.uploadBatch
		ops += w.searches / w.deleteEvery * w.deleteBatch
	}
	return ops
}

func schemeParams() core.Params {
	p := core.DefaultParams()
	p.Bins = 64
	p.Levels = rank.DefaultLevels(3, 15)
	return p
}

// inputs is everything a run feeds the system, derived from the seed alone:
// the plaintext corpus, the owner that indexes it, and the query set.
type inputs struct {
	owner   *core.Owner
	docs    []*corpus.Document
	indices []*core.SearchIndex
	queries [][]string
}

func generateInputs(w workload, seed int64) (*inputs, error) {
	docs, err := corpus.Generate(corpus.Config{
		NumDocs:        w.built,
		KeywordsPerDoc: keywordsPerDoc,
		Dictionary:     corpus.Dictionary(dictionarySize),
		MaxTermFreq:    15,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	owner, err := core.NewOwnerDeterministic(schemeParams(), seed, seed^0xbe7c4)
	if err != nil {
		return nil, err
	}
	indices, err := owner.BuildIndexes(docs, 0)
	if err != nil {
		return nil, err
	}
	return &inputs{
		owner:   owner,
		docs:    docs,
		indices: indices,
		queries: drawQueries(docs, numQueries, rand.New(rand.NewSource(seed+1))),
	}, nil
}

// drawQueries picks n distinct 2-keyword queries, each two keywords of one
// seeded document, so every query has at least one true match.
func drawQueries(docs []*corpus.Document, n int, rng *rand.Rand) [][]string {
	bases := make([]int, 4*n)
	for i := range bases {
		bases[i] = rng.Intn(len(docs))
	}
	return drawQueriesFrom(docs, bases, n, rng)
}

// drawQueriesFrom draws one query from each listed document in turn,
// skipping repeats, until it has n.
func drawQueriesFrom(docs []*corpus.Document, bases []int, n int, rng *rand.Rand) [][]string {
	seen := make(map[string]bool, n)
	out := make([][]string, 0, n)
	for _, b := range bases {
		if len(out) == n {
			break
		}
		kws := docs[b].Keywords()
		i, j := rng.Intn(len(kws)), rng.Intn(len(kws)-1)
		if j >= i {
			j++
		}
		q := []string{kws[i], kws[j]}
		slices.Sort(q)
		if key := q[0] + " " + q[1]; !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// stored is one document as the model believes the cluster holds it: which
// built index it carries and the payload uploaded with it.
type stored struct {
	base int
	doc  *core.EncryptedDocument
	pos  int // index in model.liveIDs
}

// deletion records when a document went away and which built index it had.
type deletion struct {
	op   int // operation number of the acknowledged delete
	base int
}

// model is the sequential reference for what the cluster must hold: the
// live documents, and when each deleted one went away. Operation numbers
// count searches and mutations in issue order, so a search result can be
// judged against exactly the mutations acknowledged before it.
type model struct {
	in      *inputs
	live    map[string]stored
	liveIDs []string // insertion order with swap-remove, for seeded deletes
	deleted map[string]deletion
	rng     *rand.Rand // payload bytes and delete victims
	nextNew int        // churn documents minted so far
}

func newModel(in *inputs, w workload, seed int64) *model {
	n := w.docs()
	return &model{
		in:      in,
		live:    make(map[string]stored, n),
		liveIDs: make([]string, 0, n),
		deleted: make(map[string]deletion),
		rng:     rand.New(rand.NewSource(seed + 2)),
	}
}

// initialIDs lists the documents stored before the first timed operation:
// each built document once under its own ID, then under copies-1 fresh IDs.
func initialIDs(in *inputs, w workload) (ids []string, base []int) {
	ids = make([]string, 0, w.docs())
	base = make([]int, 0, w.docs())
	for c := 0; c < w.copies; c++ {
		for i, d := range in.docs {
			id := d.ID
			if c > 0 {
				id = fmt.Sprintf("%s-r%02d", d.ID, c)
			}
			ids = append(ids, id)
			base = append(base, i)
		}
	}
	return ids, base
}

// mint builds the upload for one document ID: the base document's index
// levels under the new ID, and a fresh seeded payload.
func (m *model) mint(id string, base int) (*core.SearchIndex, *core.EncryptedDocument) {
	buf := make([]byte, ciphertextLen+encKeyLen)
	m.rng.Read(buf)
	si := &core.SearchIndex{DocID: id, Levels: m.in.indices[base].Levels}
	doc := &core.EncryptedDocument{ID: id, Ciphertext: buf[:ciphertextLen:ciphertextLen], EncKey: buf[ciphertextLen:]}
	return si, doc
}

// mintNew mints the next churn document, cycling over the built indices.
func (m *model) mintNew() (*core.SearchIndex, *core.EncryptedDocument, int) {
	base := m.nextNew % len(m.in.indices)
	id := fmt.Sprintf("new-%06d", m.nextNew)
	m.nextNew++
	si, doc := m.mint(id, base)
	return si, doc, base
}

// add records an acknowledged upload; re-uploading a live ID replaces its
// payload in place.
func (m *model) add(id string, base int, doc *core.EncryptedDocument) {
	st, ok := m.live[id]
	if !ok {
		st.pos = len(m.liveIDs)
		m.liveIDs = append(m.liveIDs, id)
	}
	st.base, st.doc = base, doc
	m.live[id] = st
}

// pickVictims chooses n live documents to delete, seeded.
func (m *model) pickVictims(n int) []string {
	out := make([]string, 0, n)
	for len(out) < n && len(m.liveIDs) > len(out) {
		id := m.liveIDs[m.rng.Intn(len(m.liveIDs))]
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// remove records an acknowledged delete issued as operation op.
func (m *model) remove(id string, op int) {
	st, ok := m.live[id]
	if !ok {
		return
	}
	last := len(m.liveIDs) - 1
	moved := m.live[m.liveIDs[last]]
	moved.pos = st.pos
	m.live[m.liveIDs[last]] = moved
	m.liveIDs[st.pos] = m.liveIDs[last]
	m.liveIDs = m.liveIDs[:last]
	m.deleted[id] = deletion{op: op, base: st.base}
	delete(m.live, id)
}

// hasAll reports whether base document i carries every keyword of q.
func (m *model) hasAll(i int, q []string) bool {
	tf := m.in.docs[i].TermFreqs
	for _, w := range q {
		if _, ok := tf[w]; !ok {
			return false
		}
	}
	return true
}
