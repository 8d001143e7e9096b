package service

import (
	"time"

	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// This file is the service layer's tracing glue: wire conversions between
// trace.Span/SpanContext and their protocol twins, and EnableTracing — the
// one call that turns a cloud daemon's tracing on.

// EnableTracing attaches t to the service: incoming requests are adopted
// or head-sampled into traces (see Serve), and the core server's scan hook
// (observeScans) gives every sampled search a "scan" span. Call it before
// Serve.
func (s *CloudService) EnableTracing(t *trace.Tracer) {
	s.Tracer = t
	s.observeScans()
}

// traceCtxFromWire validates and converts a wire trace context. A nil or
// malformed context (zero IDs — a truncated or hostile frame) converts to
// the zero SpanContext, which ContinueRequest treats as absent.
func traceCtxFromWire(w *protocol.TraceContextWire) trace.SpanContext {
	if w == nil {
		return trace.SpanContext{}
	}
	return trace.SpanContext{
		Trace:   trace.TraceID{Hi: w.TraceHi, Lo: w.TraceLo},
		Span:    w.SpanID,
		Sampled: w.Sampled,
	}
}

// traceCtxToWire stamps a span's propagation context onto an outgoing
// request; nil when the span is not sampled (the common case), so untraced
// requests carry no trace field at all.
func traceCtxToWire(sc trace.SpanContext) *protocol.TraceContextWire {
	if !sc.Valid() {
		return nil
	}
	return &protocol.TraceContextWire{
		TraceHi: sc.Trace.Hi,
		TraceLo: sc.Trace.Lo,
		SpanID:  sc.Span,
		Sampled: true,
	}
}

// spansToWire encodes recorded spans for echoing on a response.
func spansToWire(spans []trace.Span) []protocol.SpanWire {
	if len(spans) == 0 {
		return nil
	}
	out := make([]protocol.SpanWire, 0, len(spans))
	for _, sp := range spans {
		w := protocol.SpanWire{
			TraceHi:       sp.Trace.Hi,
			TraceLo:       sp.Trace.Lo,
			SpanID:        sp.ID,
			ParentID:      sp.Parent,
			Service:       sp.Service,
			Name:          sp.Name,
			StartUnixNano: sp.Start.UnixNano(),
			DurationNanos: int64(sp.Duration),
		}
		if len(sp.Attrs) > 0 {
			w.Attrs = make([]protocol.SpanAttrWire, len(sp.Attrs))
			for i, a := range sp.Attrs {
				w.Attrs[i] = protocol.SpanAttrWire{Key: a.Key, Value: a.Value}
			}
		}
		out = append(out, w)
	}
	return out
}

// spansFromWire decodes spans echoed by a peer, keeping only well-formed
// spans belonging to trace id — a confused or hostile peer must not be
// able to graft spans into a trace it was not part of.
func spansFromWire(id trace.TraceID, ws []protocol.SpanWire) []trace.Span {
	if len(ws) == 0 {
		return nil
	}
	out := make([]trace.Span, 0, len(ws))
	for _, w := range ws {
		if w.SpanID == 0 || (trace.TraceID{Hi: w.TraceHi, Lo: w.TraceLo}) != id {
			continue
		}
		sp := trace.Span{
			Trace:    id,
			ID:       w.SpanID,
			Parent:   w.ParentID,
			Service:  w.Service,
			Name:     w.Name,
			Start:    time.Unix(0, w.StartUnixNano),
			Duration: time.Duration(w.DurationNanos),
		}
		if len(w.Attrs) > 0 {
			sp.Attrs = make([]trace.Attr, len(w.Attrs))
			for i, a := range w.Attrs {
				sp.Attrs[i] = trace.Attr{Key: a.Key, Value: a.Value}
			}
		}
		out = append(out, sp)
	}
	return out
}
