package service

import (
	"errors"
	"net"
	"time"

	"mkse/internal/protocol"
)

// DialTimeout bounds every owner/cloud connection attempt this package
// makes (Dial, the single-daemon operator verbs, replication streams, and
// the failover verbs), so a black-holed address fails fast instead of
// hanging for the kernel's connect timeout. It also bounds each exchange
// of a Client with the owner daemon. Override before dialing; it must be
// positive.
var DialTimeout = 5 * time.Second

// redialTimeout bounds connection attempts made on the request path, after
// the initial dial. It is deliberately short: a redial happens while a
// caller waits, and there is always another server to try or a typed error
// to return.
const redialTimeout = 500 * time.Millisecond

// replicaMaxBench caps the exponential back-off a repeatedly failing
// replica is benched for between redial attempts.
const replicaMaxBench = 30 * time.Second

// endpoint is the client's transport to one daemon: an address, the lazily
// (re)dialed connection to it, and — for a replica in the read rotation —
// the health state that decides whether it may be tried at all. Every
// client-side connection (owner, partition primaries, replicas) is one of
// these. Not safe for concurrent use; the owner of the endpoint serializes.
type endpoint struct {
	addr string
	raw  net.Conn
	conn *protocol.Conn

	downUntil time.Time // benched after a failure; not tried before this
	checkedAt time.Time // last successful status probe
	lagging   bool      // last probe showed lag beyond the budget
	fails     int       // consecutive failures, drives the bench back-off

	reads uint64 // read requests answered (ReadDistribution)
}

// dial connects the endpoint if it is not connected already.
func (e *endpoint) dial(timeout time.Duration) error {
	if e.conn != nil {
		return nil
	}
	raw, err := net.DialTimeout("tcp", e.addr, timeout)
	if err != nil {
		return err
	}
	e.raw, e.conn = raw, protocol.NewConn(raw)
	e.checkedAt = time.Time{} // a fresh connection has proven nothing yet
	return nil
}

// roundtrip runs one exchange on the connected endpoint under a wall-clock
// deadline d; every caller passes a positive budget, so no exchange can
// wait forever. Any transport error drops the connection: a deadline that
// fires mid-frame leaves the stream unframed, so it can never be reused. A
// *protocol.RemoteError is an answer, not a transport error, and keeps the
// connection.
func (e *endpoint) roundtrip(m *protocol.Message, d time.Duration) (*protocol.Message, error) {
	e.raw.SetDeadline(time.Now().Add(d))
	resp, err := e.conn.Roundtrip(m)
	if isTransport(err) {
		e.drop()
		return nil, err
	}
	e.raw.SetDeadline(time.Time{})
	return resp, err
}

// call is dial plus roundtrip, for exchanges that need no per-attempt
// bookkeeping in between.
func (e *endpoint) call(m *protocol.Message, dialTimeout, d time.Duration) (*protocol.Message, error) {
	if err := e.dial(dialTimeout); err != nil {
		return nil, err
	}
	return e.roundtrip(m, d)
}

// drop closes the connection, if any; the next dial reconnects.
func (e *endpoint) drop() error {
	if e.raw == nil {
		return nil
	}
	err := e.raw.Close()
	e.raw, e.conn = nil, nil
	return err
}

// bench drops the connection and keeps the endpoint out of the read
// rotation for a while, doubling the wait on every consecutive failure (up
// to replicaMaxBench) so a dead address is retried rarely.
func (e *endpoint) bench(base time.Duration) {
	e.drop()
	e.lagging = false
	wait := base << e.fails
	if wait > replicaMaxBench || wait <= 0 {
		wait = replicaMaxBench
	}
	if e.fails < 30 {
		e.fails++
	}
	e.downUntil = time.Now().Add(wait)
}

// isTransport reports whether err means the exchange itself broke (dial,
// send, receive, deadline) rather than the server answering with a
// rejection. A rejected request would be rejected by every server holding
// the same data, so only transport errors are grounds for trying another.
func isTransport(err error) bool {
	if err == nil {
		return false
	}
	var remote *protocol.RemoteError
	return !errors.As(err, &remote)
}
