package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one request
// share Req; Parent is the ID of the span that caused this one, 0 for a
// request's root. Times are nanoseconds since the recorder's origin.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Req       int    `json:"req"`
	Name      string `json:"name"`
	Partition int    `json:"partition"` // -1 when the call is not partition-scoped
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The scatter's
// partition goroutines record concurrently, hence the mutex.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(req, parent int, name string, partition int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Partition: partition})
	r.spans[id-1].Start = int64(time.Since(r.origin))
	return id
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// layerOf maps a span name to its layer: the module name before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap (the
// scatter's partition calls do), so coverage is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		kids := children[sp.ID]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, reach := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// layerSummary is one layer's part of the traced requests.
type layerSummary struct {
	Layer    string  `json:"layer"`
	SelfUs   float64 `json:"median_self_us"`    // median over requests of the layer's summed self time
	SharePct float64 `json:"share_of_root_pct"` // the same as a share of the median root span
}

// summarize folds the spans into per-layer self times per request and
// takes medians over requests. The root span's own self time is the part
// of a request no layer call accounts for.
func summarize(spans []span) (layers []layerSummary, rootUs, coveragePct float64) {
	self := selfTimes(spans)
	perReq := make(map[string]map[int]int64) // layer → request → self ns
	rootDur := make(map[int]int64)
	rootSelf := make(map[int]int64)
	for i, sp := range spans {
		if sp.Parent == 0 {
			rootDur[sp.Req] = sp.End - sp.Start
			rootSelf[sp.Req] = self[i]
			continue
		}
		l := layerOf(sp.Name)
		if perReq[l] == nil {
			perReq[l] = make(map[int]int64)
		}
		perReq[l][sp.Req] += self[i]
	}
	if len(rootDur) == 0 {
		return nil, 0, 0
	}
	var durs, uncovered []float64
	for req, d := range rootDur {
		durs = append(durs, float64(d)/1e3)
		uncovered = append(uncovered, 100*float64(rootSelf[req])/float64(d))
	}
	rootUs = medianOf(durs)
	for l, byReq := range perReq {
		vs := make([]float64, 0, len(rootDur))
		for req := range rootDur {
			vs = append(vs, float64(byReq[req])/1e3)
		}
		m := medianOf(vs)
		layers = append(layers, layerSummary{Layer: l, SelfUs: m, SharePct: 100 * m / rootUs})
	}
	slices.SortFunc(layers, func(a, b layerSummary) int { return strings.Compare(a.Layer, b.Layer) })
	return layers, rootUs, 100 - medianOf(uncovered)
}

// spanDurations returns, per request, the longest span with the given
// name in microseconds: for a partition-scoped span that is the slowest
// partition, which is what the request waited for.
func spanDurations(spans []span, name string) []float64 {
	longest := make(map[int]int64)
	for _, sp := range spans {
		if sp.Name == name {
			longest[sp.Req] = max(longest[sp.Req], sp.End-sp.Start)
		}
	}
	out := make([]float64, 0, len(longest))
	for _, d := range longest {
		out = append(out, float64(d)/1e3)
	}
	return out
}

// traceFile is what a traced run leaves in <out>/trace_<workload>.json.
type traceFile struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Requests    int            `json:"requests"`
	RootUs      float64        `json:"median_root_us"`
	CoveragePct float64        `json:"span_coverage_pct"`
	Layers      []layerSummary `json:"layers"`
	Spans       []span         `json:"spans"`
}

func writeTraceFile(path string, tf *traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
