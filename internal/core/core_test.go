package core

import (
	"bytes"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/corpus"
	"mkse/internal/rank"
)

// Key generation dominates test time; share one deployment where state
// mutation does not matter.
var (
	fixtureOnce   sync.Once
	fixtureOwner  *Owner
	fixtureParams Params
)

func sharedOwner(t testing.TB) *Owner {
	fixtureOnce.Do(func() {
		fixtureParams = DefaultParams().WithLevels(rank.Levels{1, 5, 10})
		o, err := NewOwner(fixtureParams, 1)
		if err != nil {
			t.Fatalf("NewOwner: %v", err)
		}
		fixtureOwner = o
	})
	return fixtureOwner
}

func newUserFor(t testing.TB, o *Owner, id string) *User {
	t.Helper()
	u, err := NewUser(id, o.Params(), o.PublicKey(), o.RandomTrapdoors())
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	return u
}

// fetchTrapdoors runs the in-process trapdoor exchange for a set of
// keywords.
func fetchTrapdoors(t testing.TB, o *Owner, u *User, words []string) {
	t.Helper()
	ids := u.BinIDs(words)
	keys, err := o.TrapdoorKeys(ids)
	if err != nil {
		t.Fatalf("TrapdoorKeys: %v", err)
	}
	if err := u.InstallTrapdoorKeys(ids, keys); err != nil {
		t.Fatalf("InstallTrapdoorKeys: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		ok   bool
	}{
		{"default", func(p *Params) {}, true},
		{"zero R", func(p *Params) { p.R = 0 }, false},
		{"huge R", func(p *Params) { p.R = MaxR + 1 }, false},
		{"max R", func(p *Params) { p.R = MaxR }, true},
		{"bad D", func(p *Params) { p.D = 40 }, false},
		{"zero bins", func(p *Params) { p.Bins = 0 }, false},
		{"V > U", func(p *Params) { p.V = p.U + 1 }, false},
		{"no levels", func(p *Params) { p.Levels = nil }, false},
		{"descending levels", func(p *Params) { p.Levels = rank.Levels{5, 1} }, false},
		{"tiny rsa", func(p *Params) { p.RSABits = 128 }, false},
		{"ranking on", func(p *Params) { p.Levels = rank.Levels{1, 5, 10} }, true},
		{"no randomization", func(p *Params) { p.U, p.V = 0, 0 }, true},
	}
	for _, c := range cases {
		p := DefaultParams()
		c.mut(&p)
		err := p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestParamsDerivedSizes(t *testing.T) {
	p := DefaultParams()
	if p.HMACBytes() != 336 {
		t.Errorf("HMACBytes = %d, want 336 (paper: 336-byte HMAC)", p.HMACBytes())
	}
	if p.IndexBytes() != 56 {
		t.Errorf("IndexBytes = %d, want 56 (paper: 56-byte index)", p.IndexBytes())
	}
}

func TestTrapdoorDeterministicAndKeyed(t *testing.T) {
	o := sharedOwner(t)
	a := o.Trapdoor("cloud")
	b := o.Trapdoor("cloud")
	if !a.Equal(b) {
		t.Error("trapdoor generation not deterministic")
	}
	c := o.Trapdoor("server")
	if a.Equal(c) {
		t.Error("different keywords produced identical trapdoors")
	}
	// A different owner (different bin keys) produces different trapdoors —
	// this is exactly what defeats the Section 4.1 brute-force attack.
	o2, err := NewOwner(o.Params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.Trapdoor("cloud").Equal(o2.Trapdoor("cloud")) {
		t.Error("two independent owners computed the same trapdoor")
	}
}

func TestBuildIndexLevelsAreNested(t *testing.T) {
	o := sharedOwner(t)
	doc := &corpus.Document{
		ID: "d1",
		TermFreqs: map[string]int{
			"rare": 1, "mid": 6, "hot": 12, "warm": 5,
		},
	}
	si, err := o.BuildIndex(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Validate(o.Params()); err != nil {
		t.Fatal(err)
	}
	if len(si.Levels) != 3 {
		t.Fatalf("%d levels, want 3", len(si.Levels))
	}
	// Higher levels AND fewer keywords, so they have fewer zeros: every zero
	// of level i+1 is a zero of level i.
	for i := 0; i+1 < len(si.Levels); i++ {
		lower, higher := si.Levels[i], si.Levels[i+1]
		if lower.ZerosCount() < higher.ZerosCount() {
			t.Errorf("level %d has fewer zeros than level %d", i+1, i+2)
		}
		// lower matches anything higher matches... concretely: zeros(higher)
		// ⊆ zeros(lower) means lower.Matches(higher-as-query) is true.
		if !lower.Matches(higher) {
			t.Errorf("level %d zeros not contained in level %d zeros", i+2, i+1)
		}
	}
}

// A level no keyword reaches must be the all-ones index, which no randomized
// query can match — otherwise documents with only low-frequency keywords
// would be wildcard false accepts at high ranks.
func TestBuildIndexEmptyLevelsMatchNothing(t *testing.T) {
	o := sharedOwner(t)
	doc := &corpus.Document{ID: "lowtf", TermFreqs: map[string]int{"a": 1, "b": 2}}
	si, err := o.BuildIndex(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds are {1,5,10}: levels 2 and 3 are empty.
	for _, li := range []int{1, 2} {
		if si.Levels[li].OnesCount() != o.Params().R {
			t.Errorf("empty level %d is not all-ones (%d ones)", li+1, si.Levels[li].OnesCount())
		}
	}
	// Any query carrying at least one zero cannot match an all-ones level.
	u := newUserFor(t, o, "empty-level-checker")
	u.SeedQueryRNG(5)
	fetchTrapdoors(t, o, u, []string{"a", "b"})
	q, err := u.BuildQuery([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if si.Levels[1].Matches(q) {
		t.Error("randomized query matched an empty level")
	}
	if !si.Levels[0].Matches(q) {
		t.Error("genuine query failed to match level 1")
	}
}

// BuildIndexes must produce exactly what per-document BuildIndex does, in
// order, at every level and for any worker count, although it derives each
// distinct keyword of the batch once. The corpus shares keywords across
// documents, repeats documents, and has documents whose higher levels hold
// no keyword (all-ones).
func TestBuildIndexesParallelMatchesSequential(t *testing.T) {
	o := sharedOwner(t)
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 40, KeywordsPerDoc: 10, Dictionary: corpus.Dictionary(200),
		MaxTermFreq: 15, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := &corpus.Document{ID: "flat", TermFreqs: map[string]int{docs[0].Keywords()[0]: 1, "flat-only": 1}}
	docs = append(docs, docs[3], flat, docs[3])
	want := make([]*SearchIndex, len(docs))
	for i, d := range docs {
		if want[i], err = o.BuildIndex(d); err != nil {
			t.Fatal(err)
		}
	}
	if !want[len(docs)-2].Levels[1].Equal(bitindex.NewOnes(o.Params().R)) {
		t.Fatal("fixture: the flat document's level 2 is not empty")
	}
	// Level 1 from first principles: the AND of every random keyword's and
	// every document keyword's trapdoor (Equation 2).
	for i, d := range docs {
		ref := bitindex.NewOnes(o.Params().R)
		for _, v := range o.RandomTrapdoors() {
			ref.AndInto(v)
		}
		for w := range d.TermFreqs {
			ref.AndInto(o.Trapdoor(w))
		}
		if !want[i].Levels[0].Equal(ref) {
			t.Fatalf("doc %s: BuildIndex level 1 is not the AND of its trapdoors", d.ID)
		}
	}
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		par, err := o.BuildIndexes(docs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(want))
		}
		for i := range want {
			if par[i].DocID != want[i].DocID {
				t.Fatalf("workers=%d: result %d is %q, want %q", workers, i, par[i].DocID, want[i].DocID)
			}
			for li := range want[i].Levels {
				if !par[i].Levels[li].Equal(want[i].Levels[li]) {
					t.Fatalf("workers=%d: doc %s level %d differs from BuildIndex", workers, want[i].DocID, li+1)
				}
			}
		}
	}
	// One derivation per distinct level-1 keyword of the batch.
	distinct := make(map[string]bool)
	for _, d := range docs {
		for _, w := range o.Params().Levels.KeywordsAtLevel(d.TermFreqs, 1) {
			distinct[w] = true
		}
	}
	before := o.Costs.Snapshot().HashOps
	if _, err := o.BuildIndexes(docs, 4); err != nil {
		t.Fatal(err)
	}
	if got := o.Costs.Snapshot().HashOps - before; got != int64(len(distinct)) {
		t.Errorf("BuildIndexes hashed %d times, want %d (one per distinct keyword)", got, len(distinct))
	}
}

// An invalid batch fails with its first invalid document's error and leaves
// no goroutine behind.
func TestBuildIndexesInvalidBatchLeaksNoGoroutine(t *testing.T) {
	o := sharedOwner(t)
	docs := []*corpus.Document{
		{ID: "ok", TermFreqs: map[string]int{"alpha": 2}},
		{ID: "first-bad"},
		{ID: "second-bad"},
		{ID: "third-bad"},
	}
	before := runtime.NumGoroutine()
	_, err := o.BuildIndexes(docs, 2)
	if err == nil || !strings.Contains(err.Error(), `"first-bad"`) {
		t.Fatalf("error = %v, want the first invalid document's", err)
	}
	// Goroutines that are exiting may still be counted; wait for them.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the batch, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBuildIndexRejectsBadDocuments(t *testing.T) {
	o := sharedOwner(t)
	if _, err := o.BuildIndex(nil); err == nil {
		t.Error("nil document accepted")
	}
	if _, err := o.BuildIndex(&corpus.Document{ID: ""}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := o.BuildIndex(&corpus.Document{ID: "x", TermFreqs: map[string]int{}}); err == nil {
		t.Error("keyword-less document accepted")
	}
}

// End-to-end: index a corpus, query via the full trapdoor exchange, verify
// that every document containing all query keywords is returned (no false
// rejects) and that matches are rank-ordered.
func TestEndToEndSearch(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	dict := corpus.Dictionary(500)
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 120, KeywordsPerDoc: 15, Dictionary: dict, MaxTermFreq: 15, Seed: 5,
		ContentWords: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		si, enc, err := o.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
	}
	if server.NumDocuments() != 120 {
		t.Fatalf("server has %d docs", server.NumDocuments())
	}

	u := newUserFor(t, o, "alice")
	u.SeedQueryRNG(99)

	// Query for the keywords of a known document.
	target := docs[7]
	words := target.Keywords()[:2]
	fetchTrapdoors(t, o, u, words)
	q, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := server.SearchTop(q, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Every document genuinely containing both words must be present.
	found := make(map[string]int)
	for _, m := range matches {
		found[m.DocID] = m.Rank
	}
	for _, d := range docs {
		hasAll := true
		for _, w := range words {
			if _, ok := d.TermFreqs[w]; !ok {
				hasAll = false
				break
			}
		}
		if hasAll {
			if _, ok := found[d.ID]; !ok {
				t.Errorf("document %s contains all query keywords but was not returned", d.ID)
			}
		}
	}
	if _, ok := found[target.ID]; !ok {
		t.Fatal("target document missing from results")
	}

	// Rank ordering: non-increasing.
	for i := 1; i < len(matches); i++ {
		if matches[i].Rank > matches[i-1].Rank {
			t.Fatal("results not sorted by descending rank")
		}
	}
}

// The encrypted rank must equal the plaintext ground truth (LevelScore) for
// documents that genuinely contain the query keywords.
func TestRankMatchesPlaintextGroundTruth(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	levels := o.Params().Levels
	docs := []*corpus.Document{
		{ID: "low", TermFreqs: map[string]int{"alpha": 1, "beta": 2}},
		{ID: "mid", TermFreqs: map[string]int{"alpha": 6, "beta": 7}},
		{ID: "high", TermFreqs: map[string]int{"alpha": 12, "beta": 13}},
		{ID: "mixed", TermFreqs: map[string]int{"alpha": 12, "beta": 1}},
		{ID: "none", TermFreqs: map[string]int{"gamma": 5}},
	}
	for _, d := range docs {
		d.Content = []byte("body of " + d.ID)
		si, enc, err := o.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
	}
	u := newUserFor(t, o, "bob")
	u.SeedQueryRNG(7)
	query := []string{"alpha", "beta"}
	fetchTrapdoors(t, o, u, query)
	q, err := u.BuildQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := server.SearchTop(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, m := range matches {
		got[m.DocID] = m.Rank
	}
	exact := 0
	checked := 0
	for _, d := range docs {
		want := levels.LevelScore(query, d.TermFreqs)
		if want == 0 {
			// Not a genuine match; it may or may not appear as a false
			// accept, which the FAR experiment quantifies. Skip.
			continue
		}
		checked++
		// The encrypted rank can never fall below the ground truth (a level
		// genuinely containing all query keywords always matches), but it
		// can *escalate* past it when the higher level's zeros happen to
		// cover the missing keyword's zeros — the scheme's level-walk false
		// accept, probability ≈ 10% per level at these parameters.
		if got[d.ID] < want {
			t.Errorf("doc %s: encrypted rank %d below plaintext ground truth %d (false demotion)", d.ID, got[d.ID], want)
		}
		if got[d.ID] == want {
			exact++
		}
	}
	if exact < checked/2 {
		t.Errorf("only %d of %d ranks exact; escalation should be the exception", exact, checked)
	}
}

func TestSearchTopTruncates(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*corpus.Document{
		{ID: "a", TermFreqs: map[string]int{"shared": 12}},
		{ID: "b", TermFreqs: map[string]int{"shared": 6}},
		{ID: "c", TermFreqs: map[string]int{"shared": 1}},
	} {
		si, enc, err := o.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
	}
	u := newUserFor(t, o, "carol")
	u.SeedQueryRNG(3)
	fetchTrapdoors(t, o, u, []string{"shared"})
	q, err := u.BuildQuery([]string{"shared"})
	if err != nil {
		t.Fatal(err)
	}
	top, err := server.SearchTop(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("SearchTop(2) returned %d matches", len(top))
	}
	if top[0].DocID != "a" || top[0].Rank != 3 {
		t.Errorf("best match = %+v, want doc a at rank 3", top[0])
	}
	all, err := server.SearchTop(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Errorf("SearchTop(0) returned %d matches, want all >= 3", len(all))
	}
}

// Full retrieval: search, fetch, blind-decrypt, compare plaintext. The owner
// must never observe the raw wrapped key.
func TestEndToEndRetrievalWithBlinding(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	doc := &corpus.Document{
		ID:        "secret-report",
		TermFreqs: map[string]int{"merger": 3, "confidential": 8},
		Content:   []byte("the merger closes on friday"),
	}
	si, enc, err := o.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Upload(si, enc); err != nil {
		t.Fatal(err)
	}

	u := newUserFor(t, o, "dave")
	u.SeedQueryRNG(1)
	fetchTrapdoors(t, o, u, []string{"merger"})
	q, err := u.BuildQuery([]string{"merger"})
	if err != nil {
		t.Fatal(err)
	}
	matches, err := server.SearchTop(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	fetched, err := server.Fetch(matches[0].DocID)
	if err != nil {
		t.Fatal(err)
	}
	rawKey := new(big.Int).SetBytes(fetched.EncKey)
	pt, err := u.DecryptDocument(fetched, func(z *big.Int) (*big.Int, error) {
		if z.Cmp(rawKey) == 0 {
			t.Error("owner saw the unblinded wrapped key")
		}
		return o.BlindDecrypt(z)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, doc.Content) {
		t.Errorf("retrieved plaintext %q, want %q", pt, doc.Content)
	}
}

// Query randomization: two queries over the same keywords must differ, yet
// both must match the same genuine documents.
func TestQueryRandomizationPreservesMatches(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	doc := &corpus.Document{ID: "d", TermFreqs: map[string]int{"kappa": 4, "lambda": 9}}
	si, enc, err := o.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Upload(si, enc); err != nil {
		t.Fatal(err)
	}
	u := newUserFor(t, o, "erin")
	u.SeedQueryRNG(2024)
	words := []string{"kappa", "lambda"}
	fetchTrapdoors(t, o, u, words)
	q1, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Equal(q2) {
		t.Error("two randomized queries over the same terms are identical (search pattern leaks)")
	}
	m1, err := server.SearchTop(q1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := server.SearchTop(q2, 0)
	if err != nil {
		t.Fatal(err)
	}
	has := func(ms []Match, id string) bool {
		for _, m := range ms {
			if m.DocID == id {
				return true
			}
		}
		return false
	}
	if !has(m1, "d") || !has(m2, "d") {
		t.Error("randomized query failed to match the genuine document")
	}
}

func TestUserTrapdoorRequiresBinKey(t *testing.T) {
	o := sharedOwner(t)
	u := newUserFor(t, o, "frank")
	if _, err := u.Trapdoor("never-requested"); err == nil {
		t.Error("trapdoor computed without the bin key")
	}
	if u.HasTrapdoorFor("never-requested") {
		t.Error("HasTrapdoorFor reports a key the user does not hold")
	}
}

func TestUserTrapdoorMatchesOwner(t *testing.T) {
	o := sharedOwner(t)
	u := newUserFor(t, o, "grace")
	fetchTrapdoors(t, o, u, []string{"shared-word"})
	ut, err := u.Trapdoor("shared-word")
	if err != nil {
		t.Fatal(err)
	}
	if !ut.Equal(o.Trapdoor("shared-word")) {
		t.Error("user-computed trapdoor differs from owner's")
	}
}

func TestOwnerAuthenticationFlow(t *testing.T) {
	o := sharedOwner(t)
	// Unique IDs so the shared fixture survives -count=N reruns.
	id := fmt.Sprintf("henry-%d", time.Now().UnixNano())
	u := newUserFor(t, o, id)
	if err := o.RegisterUser(id, u.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterUser(id, u.PublicKey()); err == nil {
		t.Error("duplicate registration accepted")
	}
	msg := []byte("trapdoor request bins=[1,2,3]")
	sig, err := u.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.VerifyUser(id, msg, sig); err != nil {
		t.Errorf("legitimate signature rejected: %v", err)
	}
	if err := o.VerifyUser(id, append(msg, 'x'), sig); err == nil {
		t.Error("tampered message accepted")
	}
	if err := o.VerifyUser("nobody", msg, sig); err == nil {
		t.Error("unknown user accepted")
	}
	// Impersonation: another user signing as the victim must fail.
	mallory := newUserFor(t, o, id+"-mallory")
	badSig, err := mallory.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.VerifyUser(id, msg, badSig); err == nil {
		t.Error("impersonated signature accepted (Theorem 4 violated)")
	}
}

func TestTrapdoorKeysRejectsBadBin(t *testing.T) {
	o := sharedOwner(t)
	if _, err := o.TrapdoorKeys([]int{-1}); err == nil {
		t.Error("negative bin accepted")
	}
	if _, err := o.TrapdoorKeys([]int{o.Params().Bins}); err == nil {
		t.Error("out-of-range bin accepted")
	}
}

func TestServerUploadValidation(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	doc := &corpus.Document{ID: "v", TermFreqs: map[string]int{"w": 1}}
	si, enc, err := o.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Upload(nil, enc); err == nil {
		t.Error("nil index accepted")
	}
	if err := server.Upload(si, nil); err == nil {
		t.Error("nil document accepted")
	}
	enc2 := &EncryptedDocument{ID: "other", Ciphertext: enc.Ciphertext, EncKey: enc.EncKey}
	if err := server.Upload(si, enc2); err == nil {
		t.Error("mismatched IDs accepted")
	}
	// Wrong level count.
	bad := si.Clone()
	bad.Levels = bad.Levels[:1]
	if err := server.Upload(bad, enc); err == nil {
		t.Error("index with wrong level count accepted")
	}
	// Valid upload, then replacement.
	if err := server.Upload(si, enc); err != nil {
		t.Fatal(err)
	}
	if err := server.Upload(si, enc); err != nil {
		t.Errorf("re-upload (replace) failed: %v", err)
	}
	if server.NumDocuments() != 1 {
		t.Errorf("replacement duplicated the document: %d", server.NumDocuments())
	}
}

func TestServerRejectsWrongSizeQuery(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.SearchTop(nil, 0); err == nil {
		t.Error("nil query accepted")
	}
}

func TestFetchUnknownDocument(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Fetch("ghost"); err == nil {
		t.Error("unknown document fetched")
	}
}

func TestNewOwnerDeterministicReproducible(t *testing.T) {
	p := DefaultParams()
	p.Bins = 8
	a, err := NewOwnerDeterministic(p, 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOwnerDeterministic(p, 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Trapdoor("word").Equal(b.Trapdoor("word")) {
		t.Error("same key seed produced different trapdoors")
	}
	c, err := NewOwnerDeterministic(p, 1, 78)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trapdoor("word").Equal(c.Trapdoor("word")) {
		t.Error("different key seeds produced identical trapdoors")
	}
}

// bookkeepingRuns makes the document ID below fresh on every run: the shared
// owner remembers keys across `go test -count=N` repetitions.
var bookkeepingRuns atomic.Int64

func TestDocumentKeyBookkeeping(t *testing.T) {
	o := sharedOwner(t)
	id := fmt.Sprintf("bookkeeping-%d", bookkeepingRuns.Add(1))
	doc := &corpus.Document{ID: id, TermFreqs: map[string]int{"k": 1}, Content: []byte("x")}
	if _, ok := o.DocumentKey(id); ok {
		t.Fatal("key present before encryption")
	}
	if _, err := o.EncryptDocument(doc); err != nil {
		t.Fatal(err)
	}
	if k, ok := o.DocumentKey(id); !ok || len(k) == 0 {
		t.Error("key missing after encryption")
	}
}

func TestServerAccessors(t *testing.T) {
	o := sharedOwner(t)
	server, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	if server.Params().R != o.Params().R {
		t.Error("Params not preserved")
	}
	for _, id := range []string{"acc-1", "acc-2"} {
		doc := &corpus.Document{ID: id, TermFreqs: map[string]int{"k": 1}}
		si, enc, err := o.Prepare(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
	}
	ids := server.DocumentIDs()
	if len(ids) != 2 || ids[0] != "acc-1" || ids[1] != "acc-2" {
		t.Errorf("DocumentIDs = %v, want upload order", ids)
	}
	// Export visits every stored document and stops on error.
	visited := 0
	if err := server.Export(func(si *SearchIndex, doc *EncryptedDocument) error {
		if si.DocID != doc.ID {
			t.Errorf("export pairs mismatched: %s vs %s", si.DocID, doc.ID)
		}
		visited++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if visited != 2 {
		t.Errorf("Export visited %d docs, want 2", visited)
	}
	sentinel := fmt.Errorf("stop")
	if err := server.Export(func(*SearchIndex, *EncryptedDocument) error { return sentinel }); err != sentinel {
		t.Errorf("Export did not propagate the callback error: %v", err)
	}
}

// Direct owner state round trip at the core level (the store package tests
// the serialized form).
func TestOwnerStateRoundTripCore(t *testing.T) {
	p := DefaultParams()
	p.Bins = 8
	o, err := NewOwner(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOwner(o.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Trapdoor("state").Equal(o.Trapdoor("state")) {
		t.Error("restored owner computes different trapdoors")
	}
}

func TestRestoreOwnerValidation(t *testing.T) {
	if _, err := RestoreOwner(nil); err == nil {
		t.Error("nil state accepted")
	}
	p := DefaultParams()
	p.Bins = 8
	o, err := NewOwner(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	st := o.ExportState()
	st.RandomWords = st.RandomWords[:3]
	if _, err := RestoreOwner(st); err == nil {
		t.Error("state with wrong decoy count accepted")
	}
	st = o.ExportState()
	st.RSAKeyDER = []byte("garbage")
	if _, err := RestoreOwner(st); err == nil {
		t.Error("state with corrupt RSA key accepted")
	}
	st = o.ExportState()
	st.BinKeys = st.BinKeys[:2]
	if _, err := RestoreOwner(st); err == nil {
		t.Error("state with missing bin keys accepted")
	}
	st = o.ExportState()
	st.Params.R = -1
	if _, err := RestoreOwner(st); err == nil {
		t.Error("state with invalid params accepted")
	}
}

func TestCostCountersTrackOperations(t *testing.T) {
	p := DefaultParams()
	p.Bins = 16
	o, err := NewOwner(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	o.Costs.Reset()
	doc := &corpus.Document{ID: "c", TermFreqs: map[string]int{"a": 1, "b": 2, "c": 3}}
	if _, err := o.BuildIndex(doc); err != nil {
		t.Fatal(err)
	}
	snap := o.Costs.Snapshot()
	if snap.HashOps != 3 {
		t.Errorf("HashOps = %d, want 3 (one per distinct keyword)", snap.HashOps)
	}
	if snap.BitwiseProducts != 3 {
		t.Errorf("BitwiseProducts = %d, want 3", snap.BitwiseProducts)
	}
}

func TestNewUserValidation(t *testing.T) {
	o := sharedOwner(t)
	if _, err := NewUser("", o.Params(), o.PublicKey(), o.RandomTrapdoors()); err == nil {
		t.Error("empty user ID accepted")
	}
	if _, err := NewUser("x", o.Params(), nil, o.RandomTrapdoors()); err == nil {
		t.Error("missing owner key accepted")
	}
	if _, err := NewUser("x", o.Params(), o.PublicKey(), nil); err == nil {
		t.Error("missing random trapdoors accepted")
	}
	short := o.RandomTrapdoors()[:5]
	if _, err := NewUser("x", o.Params(), o.PublicKey(), short); err == nil {
		t.Error("short random trapdoor package accepted")
	}
}

func TestBuildQueryValidation(t *testing.T) {
	o := sharedOwner(t)
	u := newUserFor(t, o, "iris")
	if _, err := u.BuildQuery(nil); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := u.BuildQuery([]string{"no-key-installed"}); err == nil {
		t.Error("query without trapdoor keys accepted")
	}
}

func TestInstallTrapdoorKeysValidation(t *testing.T) {
	o := sharedOwner(t)
	u := newUserFor(t, o, "judy")
	if err := u.InstallTrapdoorKeys([]int{1, 2}, [][]byte{{1}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := u.InstallTrapdoorKeys([]int{-1}, [][]byte{{1}}); err == nil {
		t.Error("negative bin accepted")
	}
	if err := u.InstallTrapdoorKeys([]int{1}, [][]byte{nil}); err == nil {
		t.Error("empty key accepted")
	}
}
