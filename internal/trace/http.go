package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spanJSON is the wire shape of one span in a /traces response, nested
// under its parent.
type spanJSON struct {
	SpanID     string            `json:"span_id"`
	Service    string            `json:"service"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*spanJSON       `json:"children,omitempty"`
}

// traceJSON is one trace in a /traces response.
type traceJSON struct {
	TraceID    string      `json:"trace_id"`
	Root       string      `json:"root"`
	DurationMS float64     `json:"duration_ms"`
	SpanCount  int         `json:"span_count"`
	Spans      []*spanJSON `json:"spans"`
}

// buildTree nests a trace's spans under their parents; spans whose parent
// was never recorded locally (imports whose coordinator span lives
// elsewhere, or dropped spans) surface as additional top-level entries
// rather than disappearing. Children are ordered by start time.
func buildTree(tr Trace) traceJSON {
	nodes := make(map[uint64]*spanJSON, len(tr.Spans))
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		n := &spanJSON{
			SpanID:     fmt.Sprintf("%016x", sp.ID),
			Service:    sp.Service,
			Name:       sp.Name,
			Start:      sp.Start,
			DurationMS: float64(sp.Duration) / float64(time.Millisecond),
		}
		if len(sp.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[sp.ID] = n
	}
	var roots []*spanJSON
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if parent, ok := nodes[sp.Parent]; ok && sp.Parent != sp.ID {
			parent.Children = append(parent.Children, nodes[sp.ID])
		} else {
			roots = append(roots, nodes[sp.ID])
		}
	}
	var sortChildren func(ns []*spanJSON)
	sortChildren = func(ns []*spanJSON) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortChildren(n.Children)
		}
	}
	sortChildren(roots)
	out := traceJSON{TraceID: tr.ID.String(), SpanCount: len(tr.Spans), Spans: roots}
	if root := tr.Root(); root != nil {
		out.Root = root.Name
		out.DurationMS = float64(root.Duration) / float64(time.Millisecond)
	}
	return out
}

// handler serves a snapshot function as JSON; ?n= caps the count
// (default 64).
func handler(snap func(max int) []Trace) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		max := 64
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				max = v
			}
		}
		traces := snap(max)
		out := make([]traceJSON, len(traces))
		for i, tr := range traces {
			out[i] = buildTree(tr)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out) //nolint:errcheck // best-effort write to a scraper
	})
}

// RecentHandler serves the recent ring as /traces: newest-first JSON span
// trees.
func (b *Buffer) RecentHandler() http.Handler {
	return handler(b.Recent)
}

// SlowHandler serves the slow ring as /traces/slow: traces whose root
// crossed the slow threshold, surviving recent-ring churn.
func (b *Buffer) SlowHandler() http.Handler {
	return handler(b.Slow)
}

// FormatTree renders a trace's spans as an indented text tree for
// terminals (`mkse client trace`). Spans are nested under their parents,
// siblings ordered by start time, each line showing service, name,
// duration, and attributes.
func FormatTree(spans []Span) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	tr := Trace{ID: spans[0].Trace, Spans: spans}
	tree := buildTree(tr)
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s  %d spans  %.2fms\n", tree.TraceID, tree.SpanCount, tree.DurationMS)
	var walk func(ns []*spanJSON, prefix string)
	walk = func(ns []*spanJSON, prefix string) {
		for i, n := range ns {
			branch, childPrefix := "├─ ", prefix+"│  "
			if i == len(ns)-1 {
				branch, childPrefix = "└─ ", prefix+"   "
			}
			fmt.Fprintf(&sb, "%s%s%-24s %9.2fms  [%s]%s\n",
				prefix, branch, n.Name, n.DurationMS, n.Service, formatAttrs(n.Attrs))
			walk(n.Children, childPrefix)
		}
	}
	walk(tree.Spans, "")
	return sb.String()
}

func formatAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, attrs[k])
	}
	return sb.String()
}
