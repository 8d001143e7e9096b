package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Histogram buckets integer-valued observations into fixed-width bins
// [lo, lo+width), [lo+width, lo+2·width), …, the bucketing of the Figure 2
// query-distance histograms. Observations outside [lo, hi) are clamped into
// the first or last bucket so no sample is lost.
type Histogram struct {
	lo, hi, width int
	counts        []int
	n             int
	sum           float64
	sumSq         float64
}

// newHistogram creates a histogram over [lo, hi) with the given bucket
// width. It panics on a degenerate range or width, which is a programming
// error.
func newHistogram(lo, hi, width int) *Histogram {
	if width <= 0 || hi <= lo {
		panic(fmt.Sprintf("histogram: invalid range [%d,%d) width %d", lo, hi, width))
	}
	nb := (hi - lo + width - 1) / width
	return &Histogram{lo: lo, hi: hi, width: width, counts: make([]int, nb)}
}

// add records one observation, clamping an out-of-range value into the
// first or last bucket.
func (h *Histogram) add(v int) {
	idx := 0
	if v >= h.lo {
		idx = min((v-h.lo)/h.width, len(h.counts)-1)
	}
	h.counts[idx]++
	h.n++
	h.sum += float64(v)
	h.sumSq += float64(v) * float64(v)
}

// N returns the number of observations.
func (h *Histogram) N() int { return h.n }

// Mean returns the sample mean, or NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// StdDev returns the sample standard deviation, or NaN with < 2 samples.
func (h *Histogram) StdDev() float64 {
	if h.n < 2 {
		return math.NaN()
	}
	mean := h.Mean()
	return math.Sqrt((h.sumSq - float64(h.n)*mean*mean) / float64(h.n-1))
}

// bucket describes one bucket of a histogram.
type bucket struct {
	lo, hi int // [lo, hi)
	count  int
}

// buckets returns the buckets in order.
func (h *Histogram) buckets() []bucket {
	out := make([]bucket, len(h.counts))
	for i, c := range h.counts {
		out[i] = bucket{lo: h.lo + i*h.width, hi: h.lo + (i+1)*h.width, count: c}
	}
	return out
}

// renderPair renders two histograms side by side with shared buckets, the
// layout of Figure 2 ("different qry" vs "same qry"). Both histograms must
// have identical geometry.
func renderPair(labelA string, a *Histogram, labelB string, b *Histogram) string {
	if a.lo != b.lo || a.hi != b.hi || a.width != b.width {
		panic("histogram: renderPair requires identical geometry")
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-12s %10s %10s\n", "distance", labelA, labelB)
	ba, bb := a.buckets(), b.buckets()
	for i := range ba {
		fmt.Fprintf(&out, "[%4d,%4d) %10d %10d\n", ba[i].lo, ba[i].hi, ba[i].count, bb[i].count)
	}
	fmt.Fprintf(&out, "%-12s %10d %10d\n", "total", a.N(), b.N())
	fmt.Fprintf(&out, "%-12s %10.1f %10.1f\n", "mean", a.Mean(), b.Mean())
	return out.String()
}

// overlapCoefficient returns the histogram overlap Σ min(pA_i, pB_i) of the
// two normalized distributions — 1.0 means indistinguishable histograms,
// 0.0 means disjoint support. This quantifies the paper's claim that an
// adversary "basically needs to make a random guess" between the same-query
// and different-query distance distributions.
func overlapCoefficient(a, b *Histogram) float64 {
	if a.lo != b.lo || a.hi != b.hi || a.width != b.width {
		panic("histogram: overlapCoefficient requires identical geometry")
	}
	if a.n == 0 || b.n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range a.counts {
		pa := float64(a.counts[i]) / float64(a.n)
		pb := float64(b.counts[i]) / float64(b.n)
		sum += math.Min(pa, pb)
	}
	return sum
}
