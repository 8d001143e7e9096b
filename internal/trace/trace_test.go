package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilAndUnsampledPathsAreInert(t *testing.T) {
	ctx := context.Background()
	if Sampled(ctx) {
		t.Fatal("background context reported sampled")
	}
	if got := ID(ctx); !got.IsZero() {
		t.Fatalf("untraced context has trace ID %v", got)
	}
	ctx2, sp := Start(ctx, "child")
	if sp != nil {
		t.Fatal("Start on untraced context returned a span")
	}
	if ctx2 != ctx {
		t.Fatal("Start on untraced context replaced the context")
	}
	// Nil span and nil tracer methods must all no-op.
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Spans() != nil || sp.Context().Sampled || !sp.TraceID().IsZero() {
		t.Fatal("nil span leaked state")
	}
	var tr *Tracer
	if _, root := tr.StartRequest(ctx, "r", true); root != nil {
		t.Fatal("nil tracer sampled a request")
	}
	if _, root := tr.ContinueRequest(ctx, "r", SpanContext{Sampled: true, Trace: TraceID{Lo: 1}, Span: 1}); root != nil {
		t.Fatal("nil tracer continued a trace")
	}
	if id := tr.RecordRoot("x", time.Now(), time.Millisecond); !id.IsZero() {
		t.Fatal("nil tracer recorded a root")
	}
	AddCompleted(ctx, "scan", time.Now(), time.Millisecond, nil)
	Import(ctx, []Span{{Name: "x"}})
}

func TestStartRequestSamplingAndForce(t *testing.T) {
	tr := New("svc", 3, nil)
	sampled := 0
	for i := 0; i < 9; i++ {
		if _, sp := tr.StartRequest(context.Background(), "r", false); sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 3 {
		t.Fatalf("1-in-3 sampler fired %d times over 9 requests", sampled)
	}
	off := New("svc", 0, nil)
	if _, sp := off.StartRequest(context.Background(), "r", false); sp != nil {
		t.Fatal("sampleN=0 tracer sampled without force")
	}
	_, sp := off.StartRequest(context.Background(), "r", true)
	if sp == nil {
		t.Fatal("forced request not sampled")
	}
	sp.End()
}

func TestSpanTreeAssemblyAndImport(t *testing.T) {
	buf := NewBuffer(32)
	tr := New("client", 1, buf)
	ctx, root := tr.StartRequest(context.Background(), "client:search", false)
	if root == nil {
		t.Fatal("sampleN=1 did not sample")
	}
	root.SetAttr("topk", "10")
	cctx, child := Start(ctx, "partition")
	child.SetAttr("partition", "0")

	// Simulate a server continuing the trace from the child's wire context.
	sc := child.Context()
	if !sc.Valid() {
		t.Fatal("child span context invalid")
	}
	remote := New("cloud-p0", 0, nil)
	rctx, rroot := remote.ContinueRequest(context.Background(), "server:search", sc)
	if rroot == nil {
		t.Fatal("server did not adopt sampled wire context")
	}
	AddCompleted(rctx, "scan", time.Now(), 2*time.Millisecond, nil)
	rroot.End()
	Import(cctx, rroot.Spans())

	// A span from a different trace must not import.
	Import(cctx, []Span{{Trace: newTraceID(), ID: newSpanID(), Name: "alien"}})

	child.End()
	root.End()

	spans := root.Spans()
	if len(spans) != 4 { // root, partition, server:search, scan
		t.Fatalf("got %d spans: %+v", len(spans), spans)
	}
	for _, sp := range spans {
		if sp.Name == "alien" {
			t.Fatal("cross-trace span imported")
		}
		if sp.Trace != root.TraceID() {
			t.Fatalf("span %q carries wrong trace", sp.Name)
		}
	}

	got := buf.Recent(10)
	if len(got) != 1 || got[0].ID != root.TraceID() {
		t.Fatalf("buffer holds %d traces", len(got))
	}
	rootSpan := got[0].Root()
	if rootSpan == nil || rootSpan.Name != "client:search" {
		t.Fatalf("root detection failed: %+v", rootSpan)
	}

	// The rendered tree must nest coordinator → partition → server → scan.
	text := FormatTree(got[0].Spans)
	for _, want := range []string{"client:search", "partition", "server:search", "scan"} {
		if !strings.Contains(text, want) {
			t.Fatalf("tree missing %q:\n%s", want, text)
		}
	}
	if strings.Index(text, "client:search") > strings.Index(text, "scan") {
		t.Fatalf("scan rendered before root:\n%s", text)
	}
}

func TestInvalidWireContextFallsBackToLocalSampler(t *testing.T) {
	tr := New("cloud", 0, nil)
	for _, sc := range []SpanContext{
		{},
		{Sampled: true},                        // garbage: zero IDs
		{Sampled: true, Trace: TraceID{Lo: 7}}, // zero span ID
		{Trace: TraceID{Lo: 7}, Span: 9},       // not sampled
		{Sampled: true, Span: 9},               // zero trace ID
	} {
		if _, sp := tr.ContinueRequest(context.Background(), "r", sc); sp != nil {
			t.Fatalf("invalid wire context %+v was adopted", sc)
		}
	}
}

func TestBufferSlowRetentionAndHandlers(t *testing.T) {
	buf := NewBuffer(64)
	buf.SetSlowThreshold(50 * time.Millisecond)
	tr := New("cloud", 1, buf)
	fast := tr.RecordRoot("server:search", time.Now(), 5*time.Millisecond)
	slow := tr.RecordRoot("server:search", time.Now(), 80*time.Millisecond,
		Attr{Key: "verb", Value: "search"})
	if fast.IsZero() || slow.IsZero() {
		t.Fatal("RecordRoot returned zero ID")
	}
	if got := buf.Recent(10); len(got) != 2 {
		t.Fatalf("recent ring holds %d traces", len(got))
	}
	slowTraces := buf.Slow(10)
	if len(slowTraces) != 1 || slowTraces[0].ID != slow {
		t.Fatalf("slow ring holds %d traces", len(slowTraces))
	}

	rec := httptest.NewRecorder()
	buf.RecentHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	var out []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("recent handler emitted invalid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("/traces returned %d traces", len(out))
	}
	rec = httptest.NewRecorder()
	buf.SlowHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/traces/slow?n=1", nil))
	out = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("slow handler emitted invalid JSON: %v", err)
	}
	if len(out) != 1 || out[0]["trace_id"] != slow.String() {
		t.Fatalf("/traces/slow returned %+v", out)
	}
}

// NewBuffer(n) keeps exactly the n most recent traces, served newest first.
func TestBufferRingOverwrites(t *testing.T) {
	buf := NewBuffer(8)
	tr := New("x", 1, buf)
	for i := 0; i < 100; i++ {
		tr.RecordRoot(fmt.Sprint(i), time.Now(), time.Millisecond)
	}
	got := buf.Recent(1000)
	if len(got) != 8 {
		t.Fatalf("ring of capacity 8 holds %d traces after 100 adds", len(got))
	}
	for i, g := range got {
		if want := strconv.Itoa(99 - i); g.Root().Name != want {
			t.Errorf("Recent[%d] is trace %s, want %s: the 8 most recent, newest first", i, g.Root().Name, want)
		}
	}
}

// Background work opens its root the way a request does, and its timed
// stages land under that root.
func TestBackgroundSpansRecord(t *testing.T) {
	buf := NewBuffer(16)
	tr := New("durable", 0, buf)
	ctx, root := tr.StartRequest(context.Background(), "durable.checkpoint", true)
	AddCompleted(ctx, "checkpoint.pause", time.Now(), 2*time.Millisecond, nil)
	root.End()
	got := buf.Recent(10)
	if len(got) != 1 || got[0].Root() == nil || got[0].Root().Name != "durable.checkpoint" {
		t.Fatalf("checkpoint trace mis-recorded: %+v", got)
	}
	if spans := got[0].Spans; len(spans) != 2 || spans[0].Name != "checkpoint.pause" || spans[0].Parent != got[0].Root().ID {
		t.Fatalf("pause span not under the checkpoint root: %+v", spans)
	}
}

// histSpy is an Observer; a call on a nil *histSpy panics, so a typed-nil
// spy that a Timer wrongly treats as attached fails the test.
type histSpy struct{ got []time.Duration }

func (h *histSpy) Observe(d time.Duration) { h.got = append(h.got, d) }

func TestTimer(t *testing.T) {
	bg := context.Background()
	hist := &histSpy{got: make([]time.Duration, 0, 1000)}
	for _, tc := range []struct {
		name string
		obs  Observer
	}{
		{"no observer", nil},
		{"observer attached", hist},
	} {
		if got := testing.AllocsPerRun(100, func() {
			StartTimer(bg, "wal.append", tc.obs).Stop()
		}); got != 0 {
			t.Errorf("%s: unsampled timer allocates %.0f times, want 0", tc.name, got)
		}
	}
	if len(hist.got) == 0 {
		t.Fatal("attached observer received nothing")
	}

	// A nil pointer in the interface is off: no clock read, nothing observed.
	var off *histSpy
	if sw := StartTimer(bg, "wal.append", off); sw != (Timer{}) {
		t.Fatalf("typed-nil observer started a live timer: %+v", sw)
	}
	StartTimer(bg, "wal.append", off).Stop()
	AddCompleted(bg, "scan", time.Now(), time.Millisecond, off)

	// Sampled: one span under the active span, with the observed duration.
	ctx, root := New("svc", 1, nil).StartRequest(bg, "server:upload", true)
	spy := &histSpy{}
	sw := StartTimer(ctx, "wal.fsync", spy)
	time.Sleep(time.Millisecond)
	sw.Stop()
	root.End()
	var span *Span
	for _, sp := range root.Spans() {
		if sp.Name == "wal.fsync" {
			span = &sp
		}
	}
	if span == nil || span.Parent != root.Context().Span {
		t.Fatalf("sampled timer span missing or misparented: %+v", root.Spans())
	}
	if len(spy.got) != 1 || spy.got[0] != span.Duration || span.Duration <= 0 {
		t.Fatalf("observer got %v, span lasted %v", spy.got, span.Duration)
	}
}
