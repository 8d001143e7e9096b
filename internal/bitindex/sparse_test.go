package bitindex

import (
	mrand "math/rand"
	"slices"
	"testing"
)

// sparseQuery builds a query with roughly the given number of zero bits —
// the knob the zero-word-skipping kernel keys on.
func sparseQuery(rng *mrand.Rand, n, zeros int) *Vector {
	q := NewOnes(n)
	for i := 0; i < zeros; i++ {
		q.SetBit(rng.Intn(n), 0)
	}
	return q
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestWordsForMatchesBacking(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 448, 1000} {
		if got := WordsFor(n); got != len(New(n).Words()) {
			t.Errorf("WordsFor(%d) = %d, backing has %d words", n, got, len(New(n).Words()))
		}
	}
}

// The FromWords tests check the row gather, FromColumns, which builds a
// vector from one row's words in a word-major arena: scattering vectors into
// columns word by word and gathering each row back must round-trip exactly
// and never alias the arena.
func TestFromWordsRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(21))
	for _, n := range []int{1, 63, 64, 65, 448} {
		docs := make([]*Vector, 5)
		for i := range docs {
			docs[i] = randomVector(rng, n)
		}
		cols := transpose(docs, WordsFor(n))
		for row, d := range docs {
			u := FromColumns(n, cols, row)
			if !d.Equal(u) {
				t.Errorf("n=%d row %d: FromColumns != the scattered vector", n, row)
			}
			u.SetBit(0, 1-u.Bit(0))
			if !d.Equal(FromColumns(n, cols, row)) {
				t.Errorf("n=%d row %d: FromColumns shares storage with the arena", n, row)
			}
		}
	}
}

// The gather clears a row's bits beyond n.
func TestFromWordsClampsTail(t *testing.T) {
	if v := FromColumns(5, [][]uint64{{^uint64(0)}}, 0); v.OnesCount() != 5 {
		t.Errorf("tail bits beyond n survived: %d ones, want 5", v.OnesCount())
	}
}

// The gather panics on a bad length or a malformed arena.
func TestFromWordsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bits":    func() { FromColumns(0, nil, 0) },
		"neg length":   func() { FromColumns(-3, nil, 0) },
		"few columns":  func() { FromColumns(65, make([][]uint64, 1), 0) },
		"many columns": func() { FromColumns(64, make([][]uint64, 2), 0) },
		"row past end": func() { FromColumns(64, [][]uint64{make([]uint64, 2)}, 2) },
	} {
		mustPanic(t, name, fn)
	}
}

// The core property of the whole arena design: the level-walk primitive
// MatchesRow must agree exactly with the naive Matches relation, and the
// FromColumns gather must return each row's vector, for random vectors,
// lengths (word-boundary cases included), zero densities, and batch sizes.
// Zeroing further query bits can only shrink the match set
// (AND-monotonicity).
func TestSparseKernelsAgreeWithMatches(t *testing.T) {
	rng := mrand.New(mrand.NewSource(23))
	zrng := mrand.New(mrand.NewSource(26)) // own stream: the extra zeros leave the trials' inputs as they were
	lengths := []int{1, 7, 63, 64, 65, 127, 128, 200, 448, 577}
	for trial := 0; trial < 60; trial++ {
		n := lengths[trial%len(lengths)]
		ndocs := 1 + rng.Intn(40)
		docs := make([]*Vector, ndocs)
		for i := range docs {
			docs[i] = randomVector(rng, n)
		}
		cols := transpose(docs, WordsFor(n))
		nq := 1 + rng.Intn(5)
		qs := make([]*Sparse, nq)
		raw := make([]*Vector, nq)
		for i := range qs {
			// Mix zero densities: all-ones (no active words), a few zeros
			// (the skip kernel's sweet spot), and dense random.
			switch rng.Intn(3) {
			case 0:
				raw[i] = NewOnes(n)
			case 1:
				raw[i] = sparseQuery(rng, n, 1+rng.Intn(4))
			default:
				raw[i] = randomVector(rng, n)
			}
			qs[i] = raw[i].Sparsify()
		}

		for d, doc := range docs {
			if !FromColumns(n, cols, d).Equal(doc) {
				t.Fatalf("trial %d n=%d doc %d: FromColumns differs from the uploaded vector", trial, n, d)
			}
			for qi, q := range qs {
				want := doc.Matches(raw[qi])
				if got := q.MatchesRow(cols, d); got != want {
					t.Fatalf("trial %d n=%d doc %d query %d: MatchesRow=%v, Matches=%v", trial, n, d, qi, got, want)
				}
			}
		}
		for qi, q := range qs {
			tighter := raw[qi].And(sparseQuery(zrng, n, 1+zrng.Intn(4))).Sparsify()
			for d := range docs {
				if tighter.MatchesRow(cols, d) && !q.MatchesRow(cols, d) {
					t.Fatalf("trial %d query %d: row %d matches only after zeroing more query bits", trial, qi, d)
				}
			}
		}
	}
}

// SparsifyInto must fully reset reused storage: a dense query sparsified
// into scratch previously holding a sparse one (and vice versa) must behave
// identically to a fresh Sparsify.
func TestSparsifyIntoReuse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(24))
	var s Sparse
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		var q *Vector
		if trial%2 == 0 {
			q = sparseQuery(rng, n, 1+rng.Intn(3))
		} else {
			q = randomVector(rng, n)
		}
		q.SparsifyInto(&s)
		fresh := q.Sparsify()
		if s.n != fresh.n || !slices.Equal(s.not, fresh.not) || !slices.Equal(s.off, fresh.off) {
			t.Fatalf("trial %d: reused Sparse %+v differs from fresh %+v", trial, s, *fresh)
		}
		doc := randomVector(rng, n)
		if s.MatchesRow(transpose([]*Vector{doc}, WordsFor(n)), 0) != doc.Matches(q) {
			t.Fatalf("trial %d: reused Sparse disagrees with Matches", trial)
		}
	}
}

func TestSparseActiveWords(t *testing.T) {
	q := NewOnes(448)
	if s := q.Sparsify(); len(s.off) != 0 {
		t.Errorf("all-ones query has %d active words, want 0", len(s.off))
	}
	q.SetBit(100, 0) // word 1
	q.SetBit(101, 0) // word 1 again
	q.SetBit(400, 0) // word 6
	if s := q.Sparsify(); len(s.off) != 2 {
		t.Errorf("query with zeros in 2 words has %d active words", len(s.off))
	}
	// Inverted padding of the last word must never count as active.
	if s := NewOnes(65).Sparsify(); len(s.off) != 0 {
		t.Errorf("all-ones 65-bit query has %d active words, want 0", len(s.off))
	}
	if s := New(448).Sparsify(); len(s.off) != WordsFor(448) {
		t.Errorf("all-zero query has %d active words, want every one of %d", len(s.off), WordsFor(448))
	}
}

func TestSparseKernelPanics(t *testing.T) {
	s := New(64).Sparsify() // one word, active
	for name, fn := range map[string]func(){
		"too few columns":  func() { s.MatchesRow(nil, 0) },
		"too many columns": func() { s.MatchesRow(make([][]uint64, 2), 0) },
		"row past end":     func() { s.MatchesRow([][]uint64{make([]uint64, 1)}, 1) },
	} {
		mustPanic(t, name, fn)
	}
}

// matchSink keeps the benchmarked calls' results live.
var matchSink int

// BenchmarkMatchesRow448 times the level-walk primitive: one row tested per
// call, as the Algorithm-1 walk does for each screened survivor.
func BenchmarkMatchesRow448(b *testing.B) {
	rng := mrand.New(mrand.NewSource(25))
	const docs = 1000
	vecs := make([]*Vector, docs)
	for i := range vecs {
		vecs[i] = randomVector(rng, 448)
	}
	cols := transpose(vecs, WordsFor(448))
	for _, zeros := range []int{2, 7, 170} {
		q := sparseQuery(rng, 448, zeros).Sparsify()
		b.Run(map[int]string{2: "zeros=2", 7: "zeros=7", 170: "zeros=170"}[zeros], func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				for row := 0; row < docs; row++ {
					if q.MatchesRow(cols, row) {
						n++
					}
				}
			}
			matchSink = n
		})
	}
}
