package experiments

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
					t.Errorf("newHistogram(%d,%d,%d) did not panic", c.lo, c.hi, c.w)
				}
			}()
			newHistogram(c.lo, c.hi, c.w)
		}()
	}
}

func TestAddAndBuckets(t *testing.T) {
	h := newHistogram(100, 200, 10)
	for _, v := range []int{100, 105, 109, 110, 199, 150} {
		h.add(v)
	}
	bks := h.buckets()
	if len(bks) != 10 {
		t.Fatalf("%d buckets, want 10", len(bks))
	}
	if bks[0].count != 3 {
		t.Errorf("bucket [100,110) count = %d, want 3", bks[0].count)
	}
	if bks[1].count != 1 {
		t.Errorf("bucket [110,120) count = %d, want 1", bks[1].count)
	}
	if bks[9].count != 1 {
		t.Errorf("bucket [190,200) count = %d, want 1", bks[9].count)
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
		h := newHistogram(lo, hi, width)
		h.add(c.v)
		if got := h.buckets()[c.want].count; got != 1 {
			t.Errorf("Add(%d) did not land in bucket %d: %v", c.v, c.want, h.buckets())
		}
	}
}

func TestAddClampsOutOfRange(t *testing.T) {
	h := newHistogram(0, 100, 10)
	h.add(-5)
	h.add(1000)
	bks := h.buckets()
	if bks[0].count != 1 || bks[len(bks)-1].count != 1 {
		t.Error("out-of-range samples not clamped to end buckets")
	}
	if h.N() != 2 {
		t.Errorf("N = %d, want 2", h.N())
	}
}

func TestMeanStdDev(t *testing.T) {
	h := newHistogram(0, 100, 1)
	for _, v := range []int{10, 20, 30} {
		h.add(v)
	}
	if math.Abs(h.Mean()-20) > 1e-12 {
		t.Errorf("Mean = %v, want 20", h.Mean())
	}
	if math.Abs(h.StdDev()-10) > 1e-12 {
		t.Errorf("StdDev = %v, want 10", h.StdDev())
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	h := newHistogram(0, 10, 1)
	if !math.IsNaN(h.Mean()) {
		t.Error("Mean of empty histogram should be NaN")
	}
	if !math.IsNaN(h.StdDev()) {
		t.Error("StdDev of empty histogram should be NaN")
	}
}

func TestRenderPair(t *testing.T) {
	a := newHistogram(0, 20, 10)
	b := newHistogram(0, 20, 10)
	for _, v := range []int{1, 2, 3} {
		a.add(v)
	}
	for _, v := range []int{11, 12} {
		b.add(v)
	}
	s := renderPair("different", a, "same", b)
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
	renderPair("a", newHistogram(0, 10, 1), "b", newHistogram(0, 20, 1))
}

func TestOverlapCoefficient(t *testing.T) {
	a := newHistogram(0, 20, 10)
	b := newHistogram(0, 20, 10)
	for _, v := range []int{1, 2, 3, 4} {
		a.add(v)
	}
	for _, v := range []int{1, 2, 3, 4} {
		b.add(v)
	}
	if got := overlapCoefficient(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical distributions overlap %v, want 1", got)
	}
	c := newHistogram(0, 20, 10)
	for _, v := range []int{11, 12, 13} {
		c.add(v)
	}
	if got := overlapCoefficient(a, c); got != 0 {
		t.Errorf("disjoint distributions overlap %v, want 0", got)
	}
	d := newHistogram(0, 20, 10)
	for _, v := range []int{1, 11} {
		d.add(v)
	}
	if got := overlapCoefficient(a, d); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half-overlapping distributions overlap %v, want 0.5", got)
	}
}
