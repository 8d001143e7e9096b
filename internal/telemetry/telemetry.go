// Package telemetry is the daemons' observability core: a dependency-free
// metrics registry — atomic counters, gauges, and fixed-bucket latency
// histograms — rendered in the Prometheus text exposition format, plus the
// HTTP sidecar (metrics.go's Handler/Serve) that exports /metrics, a
// role/term/lag-aware /healthz, and net/http/pprof on every daemon.
//
// # Design constraints
//
// The package sits under the search hot path, so the instruments are built
// for the mutator, not the scraper: a Counter or Gauge update is one atomic
// add, and a Histogram observation is a short scan of its bucket bounds
// plus two atomic adds into preallocated slots — no locks, no allocation,
// no branching on enablement (all instrument methods are nil-safe, so an
// uninstrumented daemon pays a nil check and nothing else). All rendering
// cost — label assembly, cumulative bucket sums, float formatting — is paid
// at scrape time under the registry lock.
//
// # Conventions
//
// Series are named mkse_<subsystem>_<unit> with _total suffixes on
// counters, durations are exported in seconds, and histogram buckets are
// half-open [lo, hi): a sample exactly on a bucket bound lands in the next
// bucket. The final implicit bucket is rendered as le="+Inf", as Prometheus
// requires.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a series at registration time.
type Label struct{ Key, Value string }

// Kind classifies a metric family for the # TYPE exposition line.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// CollectFunc emits a family's samples at scrape time, for series whose
// label sets are dynamic (per-follower lag, the current role). The emit
// callback may be called any number of times with distinct label sets.
type CollectFunc func(emit func(labels []Label, value float64))

// Registry holds metric families and renders them in registration order.
// Registration is not hot-path work and takes a lock; the instruments a
// registration returns are lock-free afterwards.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

type family struct {
	name, help string
	kind       Kind
	series     []renderer
	bySig      map[string]renderer // label signature → instrument, for idempotent re-registration
	collectors []CollectFunc
	valueFns   []valueFn
}

type valueFn struct {
	labels string
	fn     func() float64
}

// renderer is a registered instrument that can print itself.
type renderer interface {
	render(w io.Writer, name string)
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor returns (creating if needed) the family with the given name,
// panicking on a kind or help mismatch — re-registering a name as a
// different metric is a programming error, as in histogram.New.
func (r *Registry) familyFor(name, help string, kind Kind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bySig: make(map[string]renderer)}
		r.byName[name] = f
		r.order = append(r.order, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s, was %s", name, kind, f.kind))
	}
	return f
}

// Counter registers (or returns the existing) monotonic counter under name
// with the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindCounter)
	sig := renderLabels(labels)
	if c, ok := f.bySig[sig].(*Counter); ok {
		return c
	}
	c := &Counter{labels: sig}
	f.bySig[sig] = c
	f.series = append(f.series, c)
	return c
}

// Gauge registers (or returns the existing) integer gauge under name.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindGauge)
	sig := renderLabels(labels)
	if g, ok := f.bySig[sig].(*Gauge); ok {
		return g
	}
	g := &Gauge{labels: sig}
	f.bySig[sig] = g
	f.series = append(f.series, g)
	return g
}

// Histogram registers (or returns the existing) latency histogram under
// name. bounds are the ascending finite bucket upper bounds; an implicit
// +Inf bucket follows the last. RequestBuckets and WriteBuckets are the
// two geometries the daemons use.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindHistogram)
	sig := renderLabels(labels)
	if h, ok := f.bySig[sig].(*Histogram); ok {
		return h
	}
	h := newHistogram(bounds, labels)
	f.bySig[sig] = h
	f.series = append(f.series, h)
	return h
}

// CounterFunc registers a counter whose value is read by f at scrape time —
// for monotonic totals another subsystem already tracks (qcache hits, WAL
// bytes) that would be wasteful to double-count.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.registerFunc(name, help, KindCounter, f, labels)
}

// GaugeFunc registers a gauge whose value is read by f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.registerFunc(name, help, KindGauge, f, labels)
}

func (r *Registry) registerFunc(name, help string, kind Kind, f func() float64, labels []Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.familyFor(name, help, kind)
	fam.valueFns = append(fam.valueFns, valueFn{labels: renderLabels(labels), fn: f})
}

// Collect registers a scrape-time collector for a family whose label sets
// are only known when scraped (for example one series per connected
// follower).
func (r *Registry) Collect(name, help string, kind Kind, f CollectFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.familyFor(name, help, kind)
	fam.collectors = append(fam.collectors, f)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.order {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			s.render(w, f.name)
		}
		for _, vf := range f.valueFns {
			fmt.Fprintf(w, "%s%s %s\n", f.name, vf.labels, formatFloat(vf.fn()))
		}
		for _, c := range f.collectors {
			c(func(labels []Label, v float64) {
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(labels), formatFloat(v))
			})
		}
	}
}

// Render returns the full exposition as a string, for tests and logs.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// --- instruments ---

// Counter is a monotonically increasing counter. All methods are safe on a
// nil *Counter (no-ops), so instrumented code needs no enablement branches.
type Counter struct {
	v      atomic.Uint64
	labels string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.v.Load())
}

// Gauge is an integer gauge. All methods are safe on a nil *Gauge.
type Gauge struct {
	v      atomic.Int64
	labels string
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, g.labels, g.v.Load())
}

// Histogram buckets duration observations into fixed upper-bound buckets
// plus an implicit +Inf bucket. Observe is the hot-path operation: a short
// bounds scan and two atomic adds — no locks, no allocation. All methods are
// safe on a nil *Histogram.
type Histogram struct {
	bounds []time.Duration // ascending finite upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64    // nanoseconds
	labels string
	// bucketLBs are the prerendered per-bucket label strings (labels merged
	// with le="…"), so scraping does no label assembly either.
	bucketLBs []string
}

func newHistogram(bounds []time.Duration, labels []Label) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		labels: renderLabels(labels),
	}
	h.bucketLBs = make([]string, len(bounds)+1)
	for i, b := range bounds {
		h.bucketLBs[i] = mergeLE(labels, formatFloat(b.Seconds()))
	}
	h.bucketLBs[len(bounds)] = mergeLE(labels, "+Inf")
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[h.bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// bucketIndex maps d onto a bucket. Buckets are half-open [lo, hi): a
// sample equal to a bound belongs to the next bucket, and everything past
// the last finite bound lands in the +Inf slot.
func (h *Histogram) bucketIndex(d time.Duration) int {
	for i, b := range h.bounds {
		if d < b {
			return i
		}
	}
	return len(h.bounds)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the summed observations (0 on nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

func (h *Histogram) render(w io.Writer, name string) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, h.bucketLBs[i], cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, h.labels, formatFloat(time.Duration(h.sum.Load()).Seconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels, cum)
}

// --- bucket geometries ---

// RequestBuckets is the default latency geometry for request-scoped
// histograms: 1-2-5 decades from 10µs to 10s, 19 buckets.
func RequestBuckets() []time.Duration {
	return []time.Duration{
		10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
		1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
	}
}

// WriteBuckets is the default geometry for storage-path histograms (WAL
// append, fsync): 1-2-5 decades from 1µs to 1s, 19 buckets.
func WriteBuckets() []time.Duration {
	return []time.Duration{
		1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
		10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
		1 * time.Second,
	}
}

// --- label rendering ---

// renderLabels prerenders a label set as {k="v",…} (empty string for no
// labels), escaping per the exposition format. Labels are sorted so the
// same set always produces the same signature.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLE renders labels plus the histogram le label.
func mergeLE(labels []Label, le string) string {
	merged := make([]Label, 0, len(labels)+1)
	merged = append(merged, labels...)
	merged = append(merged, Label{Key: "le", Value: le})
	return renderLabels(merged)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a sample value the way Prometheus clients do: shortest
// round-trippable representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
