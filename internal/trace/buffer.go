package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one completed trace: its ID plus every span any process
// recorded for it.
type Trace struct {
	ID    TraceID
	Spans []Span
}

// Root returns the trace's root span: the first span whose parent is not
// among the trace's own spans (the true root has Parent zero; a server-side
// subtree's local root parents a span recorded by the coordinator). Nil
// when the trace is empty.
func (tr Trace) Root() *Span {
	if len(tr.Spans) == 0 {
		return nil
	}
	ids := make(map[uint64]bool, len(tr.Spans))
	for i := range tr.Spans {
		ids[tr.Spans[i].ID] = true
	}
	for i := range tr.Spans {
		if tr.Spans[i].Parent == 0 || !ids[tr.Spans[i].Parent] {
			return &tr.Spans[i]
		}
	}
	return &tr.Spans[0]
}

// ring is a fixed-capacity overwrite ring of traces under its own lock.
type ring struct {
	mu   sync.Mutex
	buf  []Trace
	next int // insertion cursor
	n    int // live entries, <= len(buf)
}

func (r *ring) add(tr Trace) {
	r.mu.Lock()
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// latest returns up to max of the ring's live traces (all when max <= 0),
// most recently added first.
func (r *ring) latest(max int) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Trace, n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}

// Buffer is the bounded in-memory destination for completed traces: a ring
// of recent traces plus a separate ring that retains only traces whose
// root span crossed the slow threshold, so slow-query evidence survives
// long after the recent ring has cycled.
type Buffer struct {
	slowNS atomic.Int64
	recent ring
	slow   ring
}

// NewBuffer sizes a buffer to retain the capacity most recent traces
// (at least one) and capacity/2 slow traces (at least 16).
func NewBuffer(capacity int) *Buffer {
	b := &Buffer{}
	b.recent.buf = make([]Trace, max(capacity, 1))
	b.slow.buf = make([]Trace, max(capacity/2, 16))
	return b
}

// SetSlowThreshold sets the root-span duration above which a trace is also
// retained in the slow ring. Zero disables slow retention. Matches the
// daemon's -slow-query so logs and /traces/slow agree on "slow". Nil-safe.
func (b *Buffer) SetSlowThreshold(d time.Duration) {
	if b == nil {
		return
	}
	b.slowNS.Store(int64(d))
}

// Add records a completed trace. Nil-safe.
func (b *Buffer) Add(tr Trace) {
	if b == nil || len(tr.Spans) == 0 {
		return
	}
	b.recent.add(tr)
	if th := b.slowNS.Load(); th > 0 {
		if root := tr.Root(); root != nil && int64(root.Duration) >= th {
			b.slow.add(tr)
		}
	}
}

// Recent returns up to max traces, most recently completed first.
func (b *Buffer) Recent(max int) []Trace {
	if b == nil {
		return nil
	}
	return b.recent.latest(max)
}

// Slow returns up to max slow-retained traces, most recently completed
// first.
func (b *Buffer) Slow(max int) []Trace {
	if b == nil {
		return nil
	}
	return b.slow.latest(max)
}
