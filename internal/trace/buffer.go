package trace

import (
	"sort"
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

const bufferShards = 8

// ringShard is a fixed-capacity overwrite ring of traces under its own
// lock.
type ringShard struct {
	mu   sync.Mutex
	buf  []Trace
	next int // insertion cursor
	n    int // live entries, <= len(buf)
}

func (r *ringShard) add(tr Trace) {
	r.mu.Lock()
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// snapshot appends the shard's live traces, newest first.
func (r *ringShard) snapshot(dst []Trace) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 1; i <= r.n; i++ {
		dst = append(dst, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return dst
}

// Buffer is the bounded in-memory destination for completed traces: a
// lock-sharded ring of recent traces (sharded by trace ID so concurrent
// request completions rarely contend) plus a separate ring that retains
// only traces whose root span crossed the slow threshold, so slow-query
// evidence survives long after the recent ring has cycled.
type Buffer struct {
	slowNS atomic.Int64
	recent [bufferShards]ringShard
	slow   ringShard
}

// NewBuffer sizes a buffer to retain roughly capacity recent traces (split
// across the shards) and capacity/2 slow traces.
func NewBuffer(capacity int) *Buffer {
	if capacity < bufferShards {
		capacity = bufferShards
	}
	b := &Buffer{}
	per := capacity / bufferShards
	if per < 1 {
		per = 1
	}
	for i := range b.recent {
		b.recent[i].buf = make([]Trace, per)
	}
	slowCap := capacity / 2
	if slowCap < 16 {
		slowCap = 16
	}
	b.slow.buf = make([]Trace, slowCap)
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
	b.recent[tr.ID.Lo%bufferShards].add(tr)
	if th := b.slowNS.Load(); th > 0 {
		if root := tr.Root(); root != nil && int64(root.Duration) >= th {
			b.slow.add(tr)
		}
	}
}

// Recent returns up to max traces, newest root first.
func (b *Buffer) Recent(max int) []Trace {
	if b == nil {
		return nil
	}
	var all []Trace
	for i := range b.recent {
		all = b.recent[i].snapshot(all)
	}
	return sortTrim(all, max)
}

// Slow returns up to max slow-retained traces, newest root first.
func (b *Buffer) Slow(max int) []Trace {
	if b == nil {
		return nil
	}
	return sortTrim(b.slow.snapshot(nil), max)
}

func sortTrim(all []Trace, max int) []Trace {
	sort.SliceStable(all, func(i, j int) bool {
		ri, rj := all[i].Root(), all[j].Root()
		if ri == nil || rj == nil {
			return rj == nil
		}
		return ri.Start.After(rj.Start)
	})
	if max > 0 && len(all) > max {
		all = all[:max]
	}
	return all
}
