package histogram

import (
	"math"
	"strings"
	"testing"
)

func TestNewPanicsOnBadGeometry(t *testing.T) {
	cases := []struct{ lo, hi, w int }{{0, 10, 0}, {0, 10, -1}, {10, 10, 1}, {10, 5, 1}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", c.lo, c.hi, c.w)
				}
			}()
			New(c.lo, c.hi, c.w)
		}()
	}
}

func TestAddAndBuckets(t *testing.T) {
	h := New(100, 200, 10)
	h.AddAll([]int{100, 105, 109, 110, 199, 150})
	bks := h.Buckets()
	if len(bks) != 10 {
		t.Fatalf("%d buckets, want 10", len(bks))
	}
	if bks[0].Count != 3 {
		t.Errorf("bucket [100,110) count = %d, want 3", bks[0].Count)
	}
	if bks[1].Count != 1 {
		t.Errorf("bucket [110,120) count = %d, want 1", bks[1].Count)
	}
	if bks[9].Count != 1 {
		t.Errorf("bucket [190,200) count = %d, want 1", bks[9].Count)
	}
	if h.N() != 6 {
		t.Errorf("N = %d, want 6", h.N())
	}
}

// Buckets are half-open [lo, hi), so a value exactly on a bound belongs to
// the next bucket, with out-of-range values clamped into the end buckets.
func TestBucketIndexBoundaries(t *testing.T) {
	const lo, hi, width = 100, 150, 10 // buckets [100,110) … [140,150)
	cases := []struct{ v, want int }{
		{99, 0},   // below range clamps to first
		{100, 0},  // inclusive lower bound
		{109, 0},  // last value of bucket 0
		{110, 1},  // exactly on a bound → next bucket
		{149, 4},  // last in-range value
		{150, 4},  // hi clamps to last
		{1000, 4}, // far past range clamps to last
		{-50, 0},  // negative clamps to first
	}
	for _, c := range cases {
		h := New(lo, hi, width)
		h.Add(c.v)
		if got := h.Buckets()[c.want].Count; got != 1 {
			t.Errorf("Add(%d) did not land in bucket %d: %v", c.v, c.want, h.Buckets())
		}
	}
}

func TestAddClampsOutOfRange(t *testing.T) {
	h := New(0, 100, 10)
	h.Add(-5)
	h.Add(1000)
	bks := h.Buckets()
	if bks[0].Count != 1 || bks[len(bks)-1].Count != 1 {
		t.Error("out-of-range samples not clamped to end buckets")
	}
	if h.N() != 2 {
		t.Errorf("N = %d, want 2", h.N())
	}
}

func TestMeanStdDev(t *testing.T) {
	h := New(0, 100, 1)
	h.AddAll([]int{10, 20, 30})
	if math.Abs(h.Mean()-20) > 1e-12 {
		t.Errorf("Mean = %v, want 20", h.Mean())
	}
	if math.Abs(h.StdDev()-10) > 1e-12 {
		t.Errorf("StdDev = %v, want 10", h.StdDev())
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	h := New(0, 10, 1)
	if !math.IsNaN(h.Mean()) {
		t.Error("Mean of empty histogram should be NaN")
	}
	if !math.IsNaN(h.StdDev()) {
		t.Error("StdDev of empty histogram should be NaN")
	}
}

func TestMassBelowAndAt(t *testing.T) {
	h := New(100, 200, 10)
	// 4 below 150, 2 in [150,160), 4 above.
	h.AddAll([]int{110, 120, 130, 140, 150, 155, 160, 170, 180, 190})
	if got := h.MassBelow(150); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("MassBelow(150) = %v, want 0.4", got)
	}
	if got := h.MassAt(150); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MassAt(150) = %v, want 0.2", got)
	}
	if got := h.MassBelow(100); got != 0 {
		t.Errorf("MassBelow(lo) = %v, want 0", got)
	}
	if got := h.MassBelow(200); math.Abs(got-1) > 1e-12 {
		t.Errorf("MassBelow(hi) = %v, want 1", got)
	}
}

func TestRenderShape(t *testing.T) {
	h := New(0, 30, 10)
	h.AddAll([]int{5, 5, 5, 5, 15, 25, 25})
	s := h.Render(20)
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], strings.Repeat("#", 20)) {
		t.Errorf("largest bucket not rendered at full width:\n%s", s)
	}
	if !strings.Contains(lines[0], "4") {
		t.Errorf("count missing from row:\n%s", s)
	}
}

func TestRenderPair(t *testing.T) {
	a := New(0, 20, 10)
	b := New(0, 20, 10)
	a.AddAll([]int{1, 2, 3})
	b.AddAll([]int{11, 12})
	s := RenderPair("different", a, "same", b)
	if !strings.Contains(s, "different") || !strings.Contains(s, "same") {
		t.Errorf("labels missing:\n%s", s)
	}
	if !strings.Contains(s, "total") {
		t.Errorf("total row missing:\n%s", s)
	}
}

func TestRenderPairGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on geometry mismatch")
		}
	}()
	RenderPair("a", New(0, 10, 1), "b", New(0, 20, 1))
}

func TestOverlapCoefficient(t *testing.T) {
	a := New(0, 20, 10)
	b := New(0, 20, 10)
	a.AddAll([]int{1, 2, 3, 4})
	b.AddAll([]int{1, 2, 3, 4})
	if got := OverlapCoefficient(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical distributions overlap %v, want 1", got)
	}
	c := New(0, 20, 10)
	c.AddAll([]int{11, 12, 13})
	if got := OverlapCoefficient(a, c); got != 0 {
		t.Errorf("disjoint distributions overlap %v, want 0", got)
	}
	d := New(0, 20, 10)
	d.AddAll([]int{1, 11})
	if got := OverlapCoefficient(a, d); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half-overlapping distributions overlap %v, want 0.5", got)
	}
}

func TestQuantile(t *testing.T) {
	h := New(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(i)
	}
	med := h.Quantile(0.5)
	if med < 40 || med > 60 {
		t.Errorf("median %v outside [40,60]", med)
	}
	if !math.IsNaN(New(0, 10, 1).Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
	if !math.IsNaN(h.Quantile(1.5)) {
		t.Error("out-of-range q should give NaN")
	}
}

func TestSortedComplete(t *testing.T) {
	h := New(0, 30, 10)
	h.AddAll([]int{5, 15, 25, 25})
	m := h.Sorted()
	if len(m) != 3 {
		t.Fatalf("Sorted has %d keys, want 3", len(m))
	}
	if m[20] != 2 {
		t.Errorf("Sorted[20] = %d, want 2", m[20])
	}
}
