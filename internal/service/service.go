// Package service deploys the three MKS roles over TCP: an owner daemon
// (enrollment, trapdoor and blind-decryption endpoints), a cloud daemon
// (upload, search and fetch endpoints), and a client that drives the full
// protocol of Figure 1. The wire format lives in internal/protocol.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// logf is the package's nil-safe logger helper for free-form notices.
// Per-request logging goes through one structured slog call with verb,
// duration and remote fields (see requestSeam.serve); logf covers the
// irregular events — fencing, drains, stream lifecycles — where a rendered
// message is the payload.
func logf(l *slog.Logger, format string, args ...any) {
	if l != nil {
		l.Info(fmt.Sprintf(format, args...))
	}
}

// connTracker registers a service's live connections so a graceful shutdown
// can wait for in-flight requests and then force-close the stragglers.
type connTracker struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	gone  chan struct{} // replaced on every add; closed on every remove
}

func (t *connTracker) add(c net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns == nil {
		t.conns = make(map[net.Conn]struct{})
	}
	t.conns[c] = struct{}{}
}

func (t *connTracker) remove(c net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.conns, c)
	if t.gone != nil {
		close(t.gone)
		t.gone = nil
	}
}

// drain waits up to timeout for every tracked connection to finish, then
// force-closes whatever remains (idle keep-alive clients would otherwise pin
// the window open). Returns the number of connections it had to cut. The
// caller must have stopped accepting first.
func (t *connTracker) drain(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		n := len(t.conns)
		if n == 0 {
			t.mu.Unlock()
			return 0
		}
		if t.gone == nil {
			t.gone = make(chan struct{})
		}
		gone := t.gone
		t.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		timer := time.NewTimer(remain)
		select {
		case <-gone:
			timer.Stop()
		case <-timer.C:
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cut := len(t.conns)
	for c := range t.conns {
		c.Close()
	}
	t.conns = nil
	return cut
}

// serveLoop accepts connections and dispatches them to handler until the
// listener closes. A handler that returns nil has taken the connection
// over (replication streams do — they push messages for the connection's
// whole lifetime) and the connection is closed when it returns.
//
// A non-zero idle timeout arms a read deadline before every request, so a
// stalled or half-open client cannot pin a handler goroutine forever; a
// handler that takes the connection over must clear the deadline itself.
// tracker, when non-nil, registers connections for drain on shutdown.
func serveLoop(l net.Listener, logger *slog.Logger, idle time.Duration, tracker *connTracker, handler func(*protocol.Conn, net.Conn, *protocol.Message) *protocol.Message) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if tracker != nil {
			tracker.add(conn)
		}
		go func() {
			defer conn.Close()
			if tracker != nil {
				defer tracker.remove(conn)
			}
			pc := protocol.NewConn(conn)
			for {
				if idle > 0 {
					conn.SetReadDeadline(time.Now().Add(idle))
				}
				msg, err := pc.Recv()
				if err != nil {
					if err != io.EOF && !errors.Is(err, net.ErrClosed) {
						logf(logger, "service: connection error: %v", err)
					}
					return
				}
				resp := handler(pc, conn, msg)
				if resp == nil {
					return
				}
				if err := pc.Send(resp); err != nil {
					logf(logger, "service: send error: %v", err)
					return
				}
			}
		}()
	}
}

// A verb is one row of a daemon's verb table (CloudService.verbs,
// OwnerService.verbs); the last row is always unsupported.
type verb struct {
	name      string                                        // metric label, root span role:name, log field
	has       func(*protocol.Message) bool                  // m carries the request this row answers
	serve     func(context.Context, call) *protocol.Message // nil: it took the connection over
	stream    bool                                          // a connection-lifetime stream: never traced or observed
	slowQuery bool                                          // takes the slow-query path (WARN line, /traces/slow)
}

// call is a decoded request and the connection it arrived on.
type call struct {
	*protocol.Message
	pc   *protocol.Conn
	conn net.Conn
}

// unsupported claims every request, so it ends each verb table: a frame no
// other row answers (empty, or a reply sent as a request) gets an error.
func unsupported(daemon string) verb {
	return verb{name: "unknown", has: func(*protocol.Message) bool { return true },
		serve: func(context.Context, call) *protocol.Message {
			return errMsg(fmt.Errorf("%s: unsupported request", daemon))
		}}
}

// requestSeam is the one per-request instrumentation path: both services'
// Serve methods fill one from their verb table and fields and hand its
// serve method to serveLoop. A nil or zero instrument is off; with all of
// them off a request reads no clock.
type requestSeam struct {
	role    string // "server" or "owner": root spans are named role:verb
	verbs   []verb
	tracer  *trace.Tracer
	metrics *ServiceMetrics
	logger  *slog.Logger
	// slow is the search latency logged as "slow query" (with the store size
	// documents reports) and captured into /traces/slow even when unsampled.
	slow       time.Duration
	documents  func() int
	spanRemote bool // root spans carry the peer address (the owner's never have)
}

// serve finds the request's row, continues or opens the root span,
// brackets the handler with the in-flight gauge, ends and echoes the span,
// captures an unsampled slow search, observes the request metrics, and
// logs one line.
func (rs *requestSeam) serve(pc *protocol.Conn, conn net.Conn, m *protocol.Message) *protocol.Message {
	var v *verb
	for i := range rs.verbs {
		if v = &rs.verbs[i]; v.has(m) {
			break // the last row, unsupported, claims every request
		}
	}
	var start time.Time
	if rs.metrics != nil || rs.slow > 0 || rs.logger != nil || rs.tracer != nil {
		start = time.Now()
	}
	ctx, root := context.Background(), (*trace.ActiveSpan)(nil)
	if rs.tracer != nil && !v.stream {
		ctx, root = rs.tracer.ContinueRequest(ctx, rs.role+":"+v.name, traceCtxFromWire(m.Trace))
	}
	rs.metrics.begin()
	resp := v.serve(ctx, call{Message: m, pc: pc, conn: conn})
	rs.metrics.end()
	if start.IsZero() {
		return resp
	}
	failed := resp != nil && resp.Error != nil
	remote := conn.RemoteAddr().String()
	traceID := ""
	if root != nil {
		if failed {
			root.SetAttr("error", resp.Error.Text)
		}
		if rs.spanRemote {
			root.SetAttr("remote", remote)
		}
		root.End()
		traceID = root.TraceID().String()
		if resp != nil {
			// Echo everything this process recorded so the request's
			// origin can graft our subtree into its assembled trace.
			resp.Spans = spansToWire(root.Spans())
		}
	}
	dur := time.Since(start)
	slow := rs.slow > 0 && dur >= rs.slow && v.slowQuery
	documents := 0
	if slow {
		documents = rs.documents()
	}
	// Capture-all-slow: a search that crossed the slow threshold without
	// being head-sampled still lands in /traces/slow as one root span, so
	// the tail the latency histograms flag is always inspectable.
	if slow && root == nil && rs.tracer != nil {
		id := rs.tracer.RecordRoot(rs.role+":"+v.name, start, dur,
			trace.Attr{Key: "verb", Value: v.name},
			trace.Attr{Key: "remote", Value: remote},
			trace.Attr{Key: "documents", Value: strconv.Itoa(documents)})
		if !id.IsZero() {
			traceID = id.String()
		}
	}
	if !v.stream {
		rs.metrics.observe(v.name, dur, failed, traceID)
	}
	if rs.logger == nil {
		return resp
	}
	level, msg := slog.LevelDebug, "request served"
	args := []any{"verb", v.name, "duration", dur, "remote", remote}
	switch {
	case slow:
		level, msg = slog.LevelWarn, "slow query"
		args = append(args, "budget", rs.slow, "documents", documents)
	case failed:
		level, msg = slog.LevelWarn, "request failed"
		args = append(args, "err", resp.Error.Text)
	}
	if traceID != "" {
		args = append(args, "trace_id", traceID)
	}
	rs.logger.Log(context.Background(), level, msg, args...)
	return resp
}

// errMsg wraps an error into a protocol reply.
func errMsg(err error) *protocol.Message {
	return &protocol.Message{Error: &protocol.ErrorMsg{Text: err.Error()}}
}

// errMsgCode wraps an error into a protocol reply carrying a machine-readable
// rejection code (one of the protocol.Code* constants).
func errMsgCode(code string, err error) *protocol.Message {
	return &protocol.Message{Error: &protocol.ErrorMsg{Text: err.Error(), Code: code}}
}

// marshalVector encodes a bit vector for the wire, panicking on the
// impossible (MarshalBinary of a valid vector cannot fail).
func marshalVector(v *bitindex.Vector) []byte {
	b, err := v.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("service: marshaling vector: %v", err))
	}
	return b
}

func unmarshalVector(b []byte) (*bitindex.Vector, error) {
	var v bitindex.Vector
	if err := v.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return &v, nil
}
