// Package trace is a dependency-free distributed-tracing subsystem for the
// MKS daemons: a 128-bit trace ID and a 64-bit span ID travel with every
// wire request (protocol.Message.Trace), each daemon records spans for the
// stages it owns — coordinator scatter, per-partition RPCs, server verb
// dispatch, arena scans, query-cache lookups, WAL appends — and echoes them
// back on the response, so the request's origin can assemble one span tree
// covering every process the request touched.
//
// # Design
//
// Sampling is head-based: the origin decides once (1 in N requests, or
// forced for `mkse client trace`) and the decision propagates with the
// context; servers adopt a sampled context rather than re-deciding, so a
// trace is never half-recorded. An unsampled request carries no recorder in
// its context.Context, and every recording call is nil-safe and
// allocation-free in that case — which is what lets the scan path keep its
// allocation-free guarantee (TestSearchScanPathAllocationFree) with tracing
// compiled in.
//
// Requests that were not head-sampled but crossed the slow-query threshold
// are still captured as a single root span (Tracer.RecordRoot), so the tail
// that aggregate histograms flag is always inspectable in /traces/slow.
//
// Completed traces land in a bounded ring buffer (Buffer), served by the
// telemetry sidecar as JSON span trees on /traces (recent) and /traces/slow
// (retained above the slow threshold).
package trace

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 128-bit identifier shared by every span of one trace.
type TraceID struct{ Hi, Lo uint64 }

// IsZero reports whether the ID is the invalid zero ID.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// newTraceID draws a random non-zero trace ID.
func newTraceID() TraceID {
	for {
		id := TraceID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

// newSpanID draws a random non-zero span ID.
func newSpanID() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// SpanContext is the propagated part of a trace: what a request carries on
// the wire so the receiver can continue the trace as a child of the
// sender's span.
type SpanContext struct {
	Trace   TraceID
	Span    uint64
	Sampled bool
}

// Valid reports whether the context names a sampled, well-formed position
// in a trace. A garbage or truncated wire context (zero trace ID, zero
// span ID) is invalid and must be ignored rather than continued, so a
// hostile or corrupted frame cannot graft spans into a trace it does not
// own.
func (sc SpanContext) Valid() bool {
	return sc.Sampled && !sc.Trace.IsZero() && sc.Span != 0
}

// Attr is one key/value annotation on a span.
type Attr struct{ Key, Value string }

// Span is one completed, named, timed stage of a trace. Parent is the span
// ID this span nests under — zero for the trace root, or an ID recorded by
// another process for the local root of a server-side subtree.
type Span struct {
	Trace    TraceID
	ID       uint64
	Parent   uint64
	Service  string
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Recorder accumulates the spans of one sampled trace as they complete.
// It is carried in the request's context.Context and is safe for the
// concurrent appends a scatter-gather fan-out produces.
type Recorder struct {
	tracer  *Tracer
	trace   TraceID
	service string
	root    uint64

	mu    sync.Mutex
	spans []Span
	done  bool
}

// TraceID returns the trace this recorder collects.
func (r *Recorder) TraceID() TraceID { return r.trace }

func (r *Recorder) add(sp Span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Import grafts spans recorded by another process (echoed on a wire
// response) into this trace. Spans belonging to a different trace are
// dropped — a confused or hostile peer must not be able to mis-route its
// spans into ours.
func (r *Recorder) Import(spans []Span) {
	if len(spans) == 0 {
		return
	}
	r.mu.Lock()
	for _, sp := range spans {
		if sp.Trace == r.trace {
			r.spans = append(r.spans, sp)
		}
	}
	r.mu.Unlock()
}

// Spans snapshots every span recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// finish hands the completed trace to the tracer's buffer, once.
func (r *Recorder) finish() {
	r.mu.Lock()
	done := r.done
	r.done = true
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	if done || r.tracer == nil || r.tracer.buf == nil {
		return
	}
	r.tracer.buf.Add(Trace{ID: r.trace, Spans: spans})
}

// active is the context payload: the trace's recorder plus the span ID new
// children nest under.
type active struct {
	rec    *Recorder
	spanID uint64
}

type ctxKey struct{}

func newContext(ctx context.Context, rec *Recorder, spanID uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, active{rec: rec, spanID: spanID})
}

func fromContext(ctx context.Context) (active, bool) {
	a, ok := ctx.Value(ctxKey{}).(active)
	return a, ok
}

// Sampled reports whether ctx carries a sampled trace. On an untraced
// context this is a single map-free Value lookup, so hot paths may call it
// before building attributes.
func Sampled(ctx context.Context) bool {
	_, ok := fromContext(ctx)
	return ok
}

// ID returns the trace ID carried by ctx, or the zero ID when untraced.
func ID(ctx context.Context) TraceID {
	if a, ok := fromContext(ctx); ok {
		return a.rec.trace
	}
	return TraceID{}
}

// ActiveSpan is an open span. The nil *ActiveSpan is valid and inert —
// every method no-ops — so untraced paths need no branching beyond what
// Start already did.
type ActiveSpan struct {
	rec  *Recorder
	span Span
}

// Start opens a child span under ctx's active span, returning a context
// for the span's own children. When ctx carries no sampled trace it
// returns ctx unchanged and a nil span, allocating nothing.
func Start(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	a, ok := fromContext(ctx)
	if !ok {
		return ctx, nil
	}
	sp := &ActiveSpan{rec: a.rec, span: Span{
		Trace:   a.rec.trace,
		ID:      newSpanID(),
		Parent:  a.spanID,
		Service: a.rec.service,
		Name:    name,
		Start:   time.Now(),
	}}
	return newContext(ctx, a.rec, sp.span.ID), sp
}

// Observer receives a timed stage's duration. *telemetry.Histogram is one;
// taking the interface keeps this package free of a metrics dependency.
type Observer interface{ Observe(time.Duration) }

// observing returns o, or nil when o records nothing: a nil interface, or a
// nil pointer stored in one, such as a disabled *telemetry.Histogram.
func observing(o Observer) Observer {
	if o == nil {
		return nil
	}
	if v := reflect.ValueOf(o); v.Kind() == reflect.Pointer && v.IsNil() {
		return nil
	}
	return o
}

// Timer times one stage for both sinks at once: a child span under a
// sampled context and an observation on an attached Observer. The zero
// Timer is inert.
type Timer struct {
	ctx   context.Context
	name  string
	obs   Observer
	start time.Time
}

// StartTimer starts timing the stage name. When ctx is unsampled and obs
// records nothing it reads no clock and allocates nothing, so hot paths
// call it unconditionally.
func StartTimer(ctx context.Context, name string, obs Observer) Timer {
	obs = observing(obs)
	if obs == nil && !Sampled(ctx) {
		return Timer{}
	}
	return Timer{ctx: ctx, name: name, obs: obs, start: time.Now()}
}

// Stop ends the stage and records it (see AddCompleted). No-op on an inert
// Timer.
func (t Timer) Stop() {
	if t.ctx != nil {
		AddCompleted(t.ctx, t.name, t.start, time.Since(t.start), t.obs)
	}
}

// AddCompleted records an already-timed stage: d is observed on obs when it
// records, and a child span is added under ctx's active span when ctx is
// sampled. It is what Timer.Stop calls, and what stages timed elsewhere
// (the arena-scan hook, a checkpoint's pause) call directly.
func AddCompleted(ctx context.Context, name string, start time.Time, d time.Duration, obs Observer, attrs ...Attr) {
	if obs = observing(obs); obs != nil {
		obs.Observe(d)
	}
	a, ok := fromContext(ctx)
	if !ok {
		return
	}
	a.rec.add(Span{
		Trace:    a.rec.trace,
		ID:       newSpanID(),
		Parent:   a.spanID,
		Service:  a.rec.service,
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	})
}

// Import merges spans echoed by a peer into ctx's trace (see
// Recorder.Import). No-op on an untraced context.
func Import(ctx context.Context, spans []Span) {
	if a, ok := fromContext(ctx); ok {
		a.rec.Import(spans)
	}
}

// SetAttr annotates the span. Nil-safe.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a != nil {
		a.span.Attrs = append(a.span.Attrs, Attr{Key: key, Value: value})
	}
}

// Context returns the span's propagation context, for stamping onto an
// outgoing request. The zero SpanContext on a nil span.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.ID, Sampled: true}
}

// TraceID returns the span's trace ID (zero on a nil span).
func (a *ActiveSpan) TraceID() TraceID {
	if a == nil {
		return TraceID{}
	}
	return a.span.Trace
}

// Spans snapshots every span recorded so far in this span's trace,
// including imports from peers. Nil-safe.
func (a *ActiveSpan) Spans() []Span {
	if a == nil {
		return nil
	}
	return a.rec.Spans()
}

// End closes the span, recording its duration. Ending the trace's root
// span also hands the completed trace to the tracer's buffer. Nil-safe.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.span.Duration = time.Since(a.span.Start)
	a.rec.add(a.span)
	if a.span.ID == a.rec.root {
		a.rec.finish()
	}
}

// Tracer makes sampling decisions and owns the destination buffer. A nil
// *Tracer is valid and disables tracing: every method no-ops or returns
// the untraced result.
type Tracer struct {
	service string
	sampleN int
	buf     *Buffer
	n       atomic.Uint64
}

// New builds a tracer for one daemon. service names the process in its
// spans (e.g. "client", "cloud-p0"); sampleN head-samples 1 in N locally
// originated requests (1 = every request, <= 0 = none, though forced and
// wire-adopted traces still record); buf, which may be nil, receives
// completed traces.
func New(service string, sampleN int, buf *Buffer) *Tracer {
	return &Tracer{service: service, sampleN: sampleN, buf: buf}
}

// TraceBuffer returns the destination buffer (nil when none).
func (t *Tracer) TraceBuffer() *Buffer {
	if t == nil {
		return nil
	}
	return t.buf
}

// sampleHead is the 1-in-N head decision, counter-based so a steady load
// yields a steady sample rate.
func (t *Tracer) sampleHead() bool {
	if t == nil || t.sampleN <= 0 {
		return false
	}
	return t.n.Add(1)%uint64(t.sampleN) == 0
}

// StartRequest opens the root span of a locally originated trace if the
// head sampler fires (or force is set, as `mkse client trace` does).
// Background work with no originating request — checkpoints, replication
// applies, observer ticks — opens its root the same way. Returns (ctx, nil)
// when not sampled.
func (t *Tracer) StartRequest(ctx context.Context, name string, force bool) (context.Context, *ActiveSpan) {
	if t == nil || (!force && !t.sampleHead()) {
		return ctx, nil
	}
	return t.startRoot(ctx, name, newTraceID(), 0)
}

// ContinueRequest adopts a sampled context carried on an incoming request,
// opening this process's local root span as a child of the sender's span.
// An absent or invalid wire context falls back to the local head sampler,
// so a daemon fronted by traceless peers still self-samples.
func (t *Tracer) ContinueRequest(ctx context.Context, name string, parent SpanContext) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	if parent.Valid() {
		return t.startRoot(ctx, name, parent.Trace, parent.Span)
	}
	if !t.sampleHead() {
		return ctx, nil
	}
	return t.startRoot(ctx, name, newTraceID(), 0)
}

func (t *Tracer) startRoot(ctx context.Context, name string, id TraceID, parent uint64) (context.Context, *ActiveSpan) {
	rec := &Recorder{tracer: t, trace: id, service: t.service}
	sp := &ActiveSpan{rec: rec, span: Span{
		Trace:   id,
		ID:      newSpanID(),
		Parent:  parent,
		Service: t.service,
		Name:    name,
		Start:   time.Now(),
	}}
	rec.root = sp.span.ID
	return newContext(ctx, rec, sp.span.ID), sp
}

// RecordRoot records a complete single-span trace straight into the
// buffer: the slow-capture path for requests that were not head-sampled
// but crossed the slow threshold. Returns the new trace's ID (zero when the
// tracer or its buffer is nil).
func (t *Tracer) RecordRoot(name string, start time.Time, d time.Duration, attrs ...Attr) TraceID {
	if t == nil || t.buf == nil {
		return TraceID{}
	}
	id := newTraceID()
	t.buf.Add(Trace{ID: id, Spans: []Span{{
		Trace:    id,
		ID:       newSpanID(),
		Service:  t.service,
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	}}})
	return id
}
