// Package histogram provides the fixed-width bucketing and text rendering
// used to regenerate the query-distance histograms of Figure 2.
package histogram

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram buckets integer-valued observations into fixed-width bins
// [lo, lo+width), [lo+width, lo+2·width), …. Observations outside
// [Lo, Hi) are clamped into the first or last bucket so no sample is lost.
type Histogram struct {
	Lo, Hi, Width int
	counts        []int
	n             int
	sum           float64
	sumSq         float64
}

// New creates a histogram over [lo, hi) with the given bucket width.
// It panics on a degenerate range or width, which is a programming error.
func New(lo, hi, width int) *Histogram {
	if width <= 0 || hi <= lo {
		panic(fmt.Sprintf("histogram: invalid range [%d,%d) width %d", lo, hi, width))
	}
	nb := (hi - lo + width - 1) / width
	return &Histogram{Lo: lo, Hi: hi, Width: width, counts: make([]int, nb)}
}

// Add records one observation, clamping an out-of-range value into the
// first or last bucket.
func (h *Histogram) Add(v int) {
	idx := 0
	if v >= h.Lo {
		idx = min((v-h.Lo)/h.Width, len(h.counts)-1)
	}
	h.counts[idx]++
	h.n++
	h.sum += float64(v)
	h.sumSq += float64(v) * float64(v)
}

// AddAll records a batch of observations.
func (h *Histogram) AddAll(vs []int) {
	for _, v := range vs {
		h.Add(v)
	}
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

// Bucket describes one bucket of the histogram.
type Bucket struct {
	Lo, Hi int // [Lo, Hi)
	Count  int
}

// Buckets returns the buckets in order.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i, c := range h.counts {
		out[i] = Bucket{Lo: h.Lo + i*h.Width, Hi: h.Lo + (i+1)*h.Width, Count: c}
	}
	return out
}

// MassBelow returns the fraction of observations in buckets strictly below
// the bucket containing v — the machinery behind the paper's "45% of the
// time the distances are smaller than 150" reading of Figure 2(b).
func (h *Histogram) MassBelow(v int) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	idx := (v - h.Lo) / h.Width
	if v < h.Lo {
		idx = 0
	} else if idx >= len(h.counts) {
		idx = len(h.counts)
	}
	c := 0
	for i := 0; i < idx; i++ {
		c += h.counts[i]
	}
	return float64(c) / float64(h.n)
}

// MassAt returns the fraction of observations falling into the bucket that
// contains v.
func (h *Histogram) MassAt(v int) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	idx := (v - h.Lo) / h.Width
	if v < h.Lo || idx >= len(h.counts) {
		return 0
	}
	return float64(h.counts[idx]) / float64(h.n)
}

// Render draws the histogram as fixed-width ASCII rows:
//
//	[140,150)  ████████████████ 312
//
// scaled so the largest bucket occupies maxBar characters.
func (h *Histogram) Render(maxBar int) string {
	if maxBar <= 0 {
		maxBar = 50
	}
	peak := 0
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for _, bk := range h.Buckets() {
		bar := 0
		if peak > 0 {
			bar = bk.Count * maxBar / peak
		}
		fmt.Fprintf(&b, "[%4d,%4d) %-*s %d\n", bk.Lo, bk.Hi, maxBar, strings.Repeat("#", bar), bk.Count)
	}
	return b.String()
}

// RenderPair renders two histograms side by side with shared buckets, the
// layout of Figure 2 ("different qry" vs "same qry"). Both histograms must
// have identical geometry.
func RenderPair(labelA string, a *Histogram, labelB string, b *Histogram) string {
	if a.Lo != b.Lo || a.Hi != b.Hi || a.Width != b.Width {
		panic("histogram: RenderPair requires identical geometry")
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-12s %10s %10s\n", "distance", labelA, labelB)
	ba, bb := a.Buckets(), b.Buckets()
	for i := range ba {
		fmt.Fprintf(&out, "[%4d,%4d) %10d %10d\n", ba[i].Lo, ba[i].Hi, ba[i].Count, bb[i].Count)
	}
	fmt.Fprintf(&out, "%-12s %10d %10d\n", "total", a.N(), b.N())
	fmt.Fprintf(&out, "%-12s %10.1f %10.1f\n", "mean", a.Mean(), b.Mean())
	return out.String()
}

// OverlapCoefficient returns the histogram overlap Σ min(pA_i, pB_i) of the
// two normalized distributions — 1.0 means indistinguishable histograms,
// 0.0 means disjoint support. This quantifies the paper's claim that an
// adversary "basically needs to make a random guess" between the same-query
// and different-query distance distributions.
func OverlapCoefficient(a, b *Histogram) float64 {
	if a.Lo != b.Lo || a.Hi != b.Hi || a.Width != b.Width {
		panic("histogram: OverlapCoefficient requires identical geometry")
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

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the raw observations,
// approximated from bucket midpoints.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	target := int(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	acc := 0
	for i, c := range h.counts {
		acc += c
		if acc >= target {
			return float64(h.Lo+i*h.Width) + float64(h.Width)/2
		}
	}
	return float64(h.Hi)
}

// Sorted returns bucket counts keyed by lower bound, for stable test output.
func (h *Histogram) Sorted() map[int]int {
	m := make(map[int]int, len(h.counts))
	for _, b := range h.Buckets() {
		m[b.Lo] = b.Count
	}
	// Defensive: map iteration is unordered, but keys are complete; callers
	// who want order use Buckets. Sorted exists for test convenience.
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return m
}
