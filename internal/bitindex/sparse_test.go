package bitindex

import (
	mrand "math/rand"
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

func TestWordsForMatchesBacking(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 448, 1000} {
		if got := WordsFor(n); got != len(New(n).Words()) {
			t.Errorf("WordsFor(%d) = %d, backing has %d words", n, got, len(New(n).Words()))
		}
	}
}

func TestFromWordsRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(21))
	for _, n := range []int{1, 63, 64, 65, 448} {
		v := randomVector(rng, n)
		u := FromWords(n, v.Words())
		if !v.Equal(u) {
			t.Errorf("n=%d: FromWords(Words()) != original", n)
		}
		// The copy must not alias the source row.
		u.SetBit(0, 1-u.Bit(0))
		if v.Equal(u) {
			t.Errorf("n=%d: FromWords shares storage with its input", n)
		}
	}
}

func TestFromWordsClampsTail(t *testing.T) {
	row := []uint64{^uint64(0)}
	v := FromWords(5, row)
	if v.OnesCount() != 5 {
		t.Errorf("tail bits beyond n survived: %d ones, want 5", v.OnesCount())
	}
}

func TestFromWordsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bits":  func() { FromWords(0, nil) },
		"short row":  func() { FromWords(65, make([]uint64, 1)) },
		"long row":   func() { FromWords(64, make([]uint64, 2)) },
		"neg length": func() { FromWords(-3, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAppendToCopyWordsTo(t *testing.T) {
	rng := mrand.New(mrand.NewSource(22))
	a, b := randomVector(rng, 130), randomVector(rng, 130)
	stride := WordsFor(130)
	arena := a.AppendTo(nil)
	arena = b.AppendTo(arena)
	if len(arena) != 2*stride {
		t.Fatalf("arena holds %d words, want %d", len(arena), 2*stride)
	}
	if !FromWords(130, arena[:stride]).Equal(a) || !FromWords(130, arena[stride:]).Equal(b) {
		t.Fatal("AppendTo rows do not round-trip")
	}
	// In-place replace of row 0.
	c := randomVector(rng, 130)
	c.CopyWordsTo(arena[:stride])
	if !FromWords(130, arena[:stride]).Equal(c) {
		t.Fatal("CopyWordsTo did not overwrite the row")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CopyWordsTo with wrong-size destination did not panic")
			}
		}()
		c.CopyWordsTo(arena)
	}()
}

// The core property of the whole arena design: every sparse kernel —
// MatchWords, AppendMatchingRows — must agree exactly with the naive Matches
// relation, for random vectors, lengths (word-boundary cases included), zero
// densities, and batch sizes. Zeroing further query bits can only shrink the
// match set (AND-monotonicity).
func TestSparseKernelsAgreeWithMatches(t *testing.T) {
	rng := mrand.New(mrand.NewSource(23))
	zrng := mrand.New(mrand.NewSource(26)) // own stream: the extra zeros leave the trials' inputs as they were
	lengths := []int{1, 7, 63, 64, 65, 127, 128, 200, 448, 577}
	for trial := 0; trial < 60; trial++ {
		n := lengths[trial%len(lengths)]
		stride := WordsFor(n)
		ndocs := 1 + rng.Intn(40)
		docs := make([]*Vector, ndocs)
		var arena []uint64
		for i := range docs {
			docs[i] = randomVector(rng, n)
			arena = docs[i].AppendTo(arena)
		}
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
			for qi, q := range qs {
				want := doc.Matches(raw[qi])
				if got := q.MatchWords(arena[d*stride : (d+1)*stride]); got != want {
					t.Fatalf("trial %d n=%d doc %d query %d: MatchWords=%v, Matches=%v", trial, n, d, qi, got, want)
				}
			}
		}
		for qi, q := range qs {
			rows := q.AppendMatchingRows(arena, stride, nil)
			ri := 0
			for d, doc := range docs {
				want := doc.Matches(raw[qi])
				if want {
					if ri >= len(rows) || rows[ri] != int32(d) {
						t.Fatalf("trial %d query %d: AppendMatchingRows missing row %d (got %v)", trial, qi, d, rows)
					}
					ri++
				}
			}
			if ri != len(rows) {
				t.Fatalf("trial %d query %d: AppendMatchingRows has %d extra rows", trial, qi, len(rows)-ri)
			}
			tighter := raw[qi].And(sparseQuery(zrng, n, 1+zrng.Intn(4)))
			ri = 0
			for _, d := range tighter.Sparsify().AppendMatchingRows(arena, stride, nil) {
				for ri < len(rows) && rows[ri] < d {
					ri++
				}
				if ri == len(rows) || rows[ri] != d {
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
		if s.Len() != fresh.Len() || s.ActiveWords() != fresh.ActiveWords() || s.WordLen() != fresh.WordLen() {
			t.Fatalf("trial %d: reused Sparse differs from fresh (%d/%d/%d vs %d/%d/%d)",
				trial, s.Len(), s.ActiveWords(), s.WordLen(), fresh.Len(), fresh.ActiveWords(), fresh.WordLen())
		}
		doc := randomVector(rng, n)
		if s.MatchWords(doc.Words()) != doc.Matches(q) {
			t.Fatalf("trial %d: reused Sparse disagrees with Matches", trial)
		}
	}
}

func TestSparseActiveWords(t *testing.T) {
	q := NewOnes(448)
	if s := q.Sparsify(); s.ActiveWords() != 0 {
		t.Errorf("all-ones query has %d active words, want 0", s.ActiveWords())
	}
	q.SetBit(100, 0) // word 1
	q.SetBit(101, 0) // word 1 again
	q.SetBit(400, 0) // word 6
	if s := q.Sparsify(); s.ActiveWords() != 2 {
		t.Errorf("query with zeros in 2 words has %d active words", s.ActiveWords())
	}
	// Inverted padding of the last word must never count as active.
	if s := NewOnes(65).Sparsify(); s.ActiveWords() != 0 {
		t.Errorf("all-ones 65-bit query has %d active words, want 0", s.ActiveWords())
	}
	if s := New(448).Sparsify(); s.ActiveWords() != WordsFor(448) {
		t.Errorf("all-zero query has %d active words, want every one of %d", s.ActiveWords(), WordsFor(448))
	}
}

func TestSparseKernelPanics(t *testing.T) {
	s := NewOnes(64).Sparsify()
	for name, fn := range map[string]func(){
		"row too short": func() { s.MatchWords(nil) },
		"row too long":  func() { s.MatchWords(make([]uint64, 2)) },
		"rows stride":   func() { s.AppendMatchingRows(make([]uint64, 4), 2, nil) },
		"rows ragged":   func() { NewOnes(80).Sparsify().AppendMatchingRows(make([]uint64, 3), 2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkSparseMatchArena448(b *testing.B) {
	rng := mrand.New(mrand.NewSource(25))
	const docs = 1000
	stride := WordsFor(448)
	var arena []uint64
	for i := 0; i < docs; i++ {
		arena = randomVector(rng, 448).AppendTo(arena)
	}
	for _, zeros := range []int{2, 7, 170} {
		q := sparseQuery(rng, 448, zeros).Sparsify()
		b.Run(map[int]string{2: "zeros=2", 7: "zeros=7", 170: "zeros=170"}[zeros], func(b *testing.B) {
			var rows []int32
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows = q.AppendMatchingRows(arena, stride, rows[:0])
			}
		})
	}
}
