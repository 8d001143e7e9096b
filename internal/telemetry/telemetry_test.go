package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// The exposition output is a wire format consumed by Prometheus, not a log:
// pin it exactly — HELP/TYPE lines, registration order, sorted labels,
// cumulative buckets with the implicit +Inf, _sum in seconds, _total naming
// left to the caller.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	c := r.Counter("mkse_request_errors_total", "Requests answered with an error.",
		Label{Key: "verb", Value: "search"})
	c.Add(3)
	g := r.Gauge("mkse_documents", "Documents in the store.")
	g.Set(42)
	h := r.Histogram("mkse_scan_duration_seconds", "Arena scan duration.",
		[]time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket le=0.001
	h.Observe(time.Millisecond)       // exactly on a bound: half-open, next bucket
	h.Observe(3 * time.Millisecond)   // bucket le=0.004
	h.Observe(time.Hour)              // +Inf
	r.GaugeFunc("mkse_epoch", "Mutation epoch.", func() float64 { return 7 })
	r.Collect("mkse_role", "Current role.", KindGauge, func(emit func([]Label, float64)) {
		emit([]Label{{Key: "role", Value: "primary"}}, 1)
	})

	want := strings.Join([]string{
		"# HELP mkse_request_errors_total Requests answered with an error.",
		"# TYPE mkse_request_errors_total counter",
		`mkse_request_errors_total{verb="search"} 3`,
		"# HELP mkse_documents Documents in the store.",
		"# TYPE mkse_documents gauge",
		"mkse_documents 42",
		"# HELP mkse_scan_duration_seconds Arena scan duration.",
		"# TYPE mkse_scan_duration_seconds histogram",
		`mkse_scan_duration_seconds_bucket{le="0.001"} 1`,
		`mkse_scan_duration_seconds_bucket{le="0.002"} 2`,
		`mkse_scan_duration_seconds_bucket{le="0.004"} 3`,
		`mkse_scan_duration_seconds_bucket{le="+Inf"} 4`,
		"mkse_scan_duration_seconds_sum 3600.0045",
		"mkse_scan_duration_seconds_count 4",
		"# HELP mkse_epoch Mutation epoch.",
		"# TYPE mkse_epoch gauge",
		"mkse_epoch 7",
		"# HELP mkse_role Current role.",
		"# TYPE mkse_role gauge",
		`mkse_role{role="primary"} 1`,
		"",
	}, "\n")
	if got := r.Render(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// Histogram buckets are half-open [lo, hi), including on samples exactly
// at a bound and past the last finite bound, for an irregular (1-2-5) set
// and for a single bound.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		bounds []time.Duration
	}{
		{"irregular", []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}},
		{"single", []time.Duration{time.Millisecond}},
	}
	for _, tc := range cases {
		h := newHistogram(tc.bounds, nil)
		for i, b := range tc.bounds {
			if got := h.bucketIndex(b - 1); got != i {
				t.Errorf("%s: bucketIndex(%v-1ns) = %d, want %d", tc.name, b, got, i)
			}
			// Exactly on the bound: the next bucket.
			if got := h.bucketIndex(b); got != i+1 {
				t.Errorf("%s: bucketIndex(%v) = %d, want %d", tc.name, b, got, i+1)
			}
		}
		if got := h.bucketIndex(0); got != 0 {
			t.Errorf("%s: bucketIndex(0) = %d, want 0", tc.name, got)
		}
		if got := h.bucketIndex(time.Hour); got != len(tc.bounds) {
			t.Errorf("%s: bucketIndex(1h) = %d, want +Inf slot %d", tc.name, got, len(tc.bounds))
		}
	}
}

// Re-registering the same (name, labels) returns the same instrument —
// EnableMetrics must be idempotent — and re-registering a name as a
// different kind is a programming error that panics.
func TestRegistrationIdempotence(t *testing.T) {
	r := New()
	l := Label{Key: "verb", Value: "search"}
	if r.Counter("c", "h", l) != r.Counter("c", "h", l) {
		t.Error("same counter registration returned distinct instruments")
	}
	if r.Counter("c", "h") == r.Counter("c", "h", l) {
		t.Error("distinct label sets shared an instrument")
	}
	if r.Gauge("g", "h") != r.Gauge("g", "h") {
		t.Error("same gauge registration returned distinct instruments")
	}
	b := RequestBuckets()
	if r.Histogram("hist", "h", b) != r.Histogram("hist", "h", b) {
		t.Error("same histogram registration returned distinct instruments")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("c", "h")
}

// Nil instruments are the disabled state: every method must be a safe no-op
// so instrumented code paths need no enablement branches.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	var g *Gauge
	g.Set(1)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 0 {
		t.Error("nil gauge value != 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram accumulated")
	}
}

// Hammer every instrument from many goroutines while a scraper renders
// concurrently; run under -race in CI. Counts must come out exact — the
// instruments are atomics, not sampled.
func TestConcurrentObserve(t *testing.T) {
	r := New()
	c := r.Counter("c", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("hist", "h", RequestBuckets())
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(seed*i) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Render()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Errorf("gauge = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

// Label values are escaped per the exposition format and label sets render
// sorted by key, so a scrape never emits an unparseable or unstable series.
func TestLabelRendering(t *testing.T) {
	got := renderLabels([]Label{
		{Key: "z", Value: "end"},
		{Key: "a", Value: "quote\" slash\\ nl\n"},
	})
	want := `{a="quote\" slash\\ nl\n",z="end"}`
	if got != want {
		t.Errorf("renderLabels = %s, want %s", got, want)
	}
	if renderLabels(nil) != "" {
		t.Error("empty label set should render as empty string")
	}
}

func TestBucketConstructors(t *testing.T) {
	for _, bs := range [][]time.Duration{RequestBuckets(), WriteBuckets()} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("default buckets not ascending at %d: %v", i, bs)
			}
		}
	}
}
