package bitindex

import (
	mrand "math/rand"
	"testing"
)

// transpose lays docs out word-major: cols[w][row] = word w of docs[row].
func transpose(docs []*Vector, stride int) [][]uint64 {
	cols := make([][]uint64, stride)
	for w := range cols {
		cols[w] = make([]uint64, len(docs))
	}
	for row, d := range docs {
		for w, word := range d.Words() {
			cols[w][row] = word
		}
	}
	return cols
}

// The blocked word-major kernel must agree, byte for byte, with Equation 3
// itself — per-row Vector.Matches in ascending row order — and with the
// level-walk row kernel MatchesRow, across randomized vector lengths
// (one-column arenas included), row counts that exercise full blocks,
// partial tail blocks and the empty arena, zero densities from all-ones to
// dense random, and a shared scratch reused across every geometry.
func TestColumnKernelAgreesWithRowKernels(t *testing.T) {
	rng := mrand.New(mrand.NewSource(26))
	lengths := []int{1, 7, 63, 64, 65, 127, 128, 200, 448, 577}
	rowCounts := []int{0, 1, 3, 63, 64, 65, 127, 128, 200, 256, 300}
	var bs BlockScratch // reused across all trials, like a worker's scratch
	for trial := 0; trial < 120; trial++ {
		n := lengths[trial%len(lengths)]
		var ndocs int
		if trial%3 == 0 {
			ndocs = rowCounts[(trial/3)%len(rowCounts)]
		} else {
			ndocs = rng.Intn(260)
		}
		docs := make([]*Vector, ndocs)
		for i := range docs {
			docs[i] = randomVector(rng, n)
		}
		cols := transpose(docs, WordsFor(n))

		for qi := 0; qi < 4; qi++ {
			var raw *Vector
			switch qi {
			case 0:
				raw = NewOnes(n) // no active words: matches everything
			case 1:
				raw = sparseQuery(rng, n, 1+rng.Intn(3)) // one-ish active word
			case 2:
				raw = sparseQuery(rng, n, 1+rng.Intn(n)) // multi-word refinement
			default:
				raw = randomVector(rng, n) // dense: every word active
			}
			q := raw.Sparsify()

			gotRows := q.AppendMatchingRowsColumns(cols, ndocs, &bs, nil)
			ri := 0
			for d, doc := range docs {
				want := doc.Matches(raw)
				if q.MatchesRow(cols, d) != want {
					t.Fatalf("trial %d n=%d query %d: MatchesRow disagrees with Matches on row %d", trial, n, qi, d)
				}
				if !want {
					continue
				}
				if ri >= len(gotRows) || gotRows[ri] != int32(d) {
					t.Fatalf("trial %d n=%d docs=%d query %d: cols kernel missing row %d (got %v)", trial, n, ndocs, qi, d, gotRows)
				}
				ri++
			}
			if ri != len(gotRows) {
				t.Fatalf("trial %d n=%d docs=%d query %d: cols kernel has %d extra rows", trial, n, ndocs, qi, len(gotRows)-ri)
			}
		}
	}
}

// A nil scratch must work (the kernel allocates its own) and produce the
// same output as a reused one.
func TestColumnKernelNilScratch(t *testing.T) {
	rng := mrand.New(mrand.NewSource(27))
	n := 448
	stride := WordsFor(n)
	docs := make([]*Vector, 130)
	for i := range docs {
		docs[i] = randomVector(rng, n)
	}
	cols := transpose(docs, stride)
	q := sparseQuery(rng, n, 20).Sparsify()
	var bs BlockScratch
	with := q.AppendMatchingRowsColumns(cols, len(docs), &bs, nil)
	without := q.AppendMatchingRowsColumns(cols, len(docs), nil, nil)
	if len(with) != len(without) {
		t.Fatalf("nil scratch found %d rows, reused scratch %d", len(without), len(with))
	}
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("row %d: nil scratch %d, reused scratch %d", i, without[i], with[i])
		}
	}
}

func TestColumnKernelPanics(t *testing.T) {
	s := NewOnes(128).Sparsify() // 2 words
	good := [][]uint64{make([]uint64, 3), make([]uint64, 3)}
	for name, fn := range map[string]func(){
		"column count":  func() { s.AppendMatchingRowsColumns([][]uint64{nil}, 0, nil, nil) },
		"negative rows": func() { s.AppendMatchingRowsColumns(good, -1, nil, nil) },
		// An active column shorter than rows must panic; word 1 is active.
		"ragged column": func() {
			q := NewOnes(128)
			q.SetBit(100, 0)
			q.Sparsify().AppendMatchingRowsColumns([][]uint64{make([]uint64, 3), make([]uint64, 2)}, 3, nil, nil)
		},
	} {
		mustPanic(t, name, fn)
	}
}

// Steady-state kernel calls with warm scratch and a pre-grown destination
// must not allocate — the server's scan loop depends on it.
func TestColumnKernelAllocationFree(t *testing.T) {
	rng := mrand.New(mrand.NewSource(28))
	n := 448
	stride := WordsFor(n)
	docs := make([]*Vector, 1000)
	for i := range docs {
		docs[i] = randomVector(rng, n)
	}
	cols := transpose(docs, stride)
	q := sparseQuery(rng, n, 30).Sparsify()
	var bs BlockScratch
	rows := make([]int32, 0, len(docs))
	rows = q.AppendMatchingRowsColumns(cols, len(docs), &bs, rows[:0]) // warm the scratch
	if got := testing.AllocsPerRun(50, func() {
		rows = q.AppendMatchingRowsColumns(cols, len(docs), &bs, rows[:0])
	}); got > 0 {
		t.Errorf("warm kernel call allocates %.0f times, want 0", got)
	}
}

func BenchmarkColumnKernel448(b *testing.B) {
	rng := mrand.New(mrand.NewSource(29))
	const docs = 10000
	n := 448
	stride := WordsFor(n)
	vecs := make([]*Vector, docs)
	for i := range vecs {
		v := New(n)
		for j := 0; j < n; j++ {
			if rng.Intn(100) < 28 { // document-index one-density under defaults
				v.SetBit(j, 1)
			}
		}
		vecs[i] = v
	}
	cols := transpose(vecs, stride)
	for _, zeros := range []int{2, 7, 170} {
		q := sparseQuery(rng, n, zeros).Sparsify()
		b.Run(map[int]string{2: "zeros=2", 7: "zeros=7", 170: "zeros=170"}[zeros], func(b *testing.B) {
			var bs BlockScratch
			var rows []int32
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows = q.AppendMatchingRowsColumns(cols, docs, &bs, rows[:0])
			}
		})
	}
}
