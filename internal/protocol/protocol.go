// Package protocol defines the wire format of the three-party MKS protocol
// (Figure 1 of the paper): length-framed gob messages between user ↔ data
// owner (enrollment, trapdoors, blind decryption) and user/owner ↔ cloud
// server (upload, search, fetch). Every user→owner request carries an RSA
// signature over a canonical encoding of its content (Section 4.2 /
// Theorem 4).
package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"time"

	"mkse/internal/blindrsa"
	"mkse/internal/core"
	"mkse/internal/rank"
)

// MaxFrameSize bounds a single message (64 MiB): large enough for bulk
// document uploads, small enough to stop a malicious peer from forcing an
// unbounded allocation.
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("protocol: frame exceeds maximum size")

// WriteFrame writes one length-prefixed payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("protocol: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("protocol: writing frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed payload.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	// Grow the payload as bytes actually arrive rather than trusting the
	// length prefix: a hostile peer can claim a near-MaxFrameSize frame in
	// four bytes without ever sending the body, and pre-allocating would
	// hand every such claim megabytes of memory.
	var buf bytes.Buffer
	buf.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("protocol: reading frame body: %w", err)
	}
	return buf.Bytes(), nil
}

// Message is the envelope carried in every frame. Exactly one pointer field
// is non-nil; gob omits the rest. An explicit envelope (rather than
// gob-registered interfaces) keeps the wire format self-describing and easy
// to evolve.
type Message struct {
	Error *ErrorMsg

	// Trace, when non-nil on a request, carries the sender's distributed-
	// tracing context (internal/trace): the 128-bit trace ID, the sender's
	// span ID, and the head-sampling decision. A tracing server continues
	// the trace as a child of the carried span and echoes the spans it
	// recorded back in the response's Spans field; a server without tracing
	// ignores both fields entirely. Because gob drops fields the receiving
	// struct does not declare (and zero-values fields the sender omitted),
	// traced and traceless peers interoperate in both directions.
	Trace *TraceContextWire

	// Spans, on a response, returns the spans the server recorded while
	// handling a traced request, for the request's origin to graft into its
	// assembled cross-daemon span tree. Empty on untraced requests.
	Spans []SpanWire

	EnrollReq  *EnrollRequest
	EnrollResp *EnrollResponse

	TrapdoorReq  *TrapdoorRequest
	TrapdoorResp *TrapdoorResponse

	BlindDecryptReq  *BlindDecryptRequest
	BlindDecryptResp *BlindDecryptResponse

	UploadReq  *UploadRequest
	UploadResp *UploadResponse

	DeleteReq  *DeleteRequest
	DeleteResp *DeleteResponse

	SearchReq  *SearchRequest
	SearchResp *SearchResponse

	SearchBatchReq  *SearchBatchRequest
	SearchBatchResp *SearchBatchResponse

	FetchReq  *FetchRequest
	FetchResp *FetchResponse

	ReplicaSubscribeReq  *ReplicaSubscribeRequest
	ReplicaSubscribeResp *ReplicaSubscribeResponse
	ReplicaSnapshot      *ReplicaSnapshotChunk
	ReplicaRecords       *ReplicaRecordBatch
	ReplicaAck           *ReplicaAckMsg

	PromoteReq  *PromoteRequest
	PromoteResp *PromoteResponse

	ReconfigureReq  *ReconfigureRequest
	ReconfigureResp *ReconfigureResponse

	StatsReq  *StatsRequest
	StatsResp *StatsResponse

	ClusterInfoReq  *ClusterInfoRequest
	ClusterInfoResp *ClusterInfoResponse
}

// Error codes carried in ErrorMsg.Code, for rejections a caller must react
// to mechanically rather than display. Absent (empty) on ordinary failures.
const (
	// CodeStaleTerm rejects a request or stream authenticated by a promotion
	// term older than the receiver's — the sender was failed over and must
	// demote itself.
	CodeStaleTerm = "stale-term"
	// CodeDiverged rejects a replication subscribe whose position lies past
	// the primary's current term start: the follower holds records this
	// history does not share and must bootstrap from a checkpoint.
	CodeDiverged = "diverged"
	// CodeReadOnly rejects a mutation sent to a demoted (fenced) daemon. A
	// failover-aware client treats it like a transport failure: re-probe the
	// replica set for the new primary.
	CodeReadOnly = "read-only"
	// CodeWrongPartition rejects a mutation for a document this partition
	// does not own under the cluster's doc-ID hash map. The sender's
	// partition map disagrees with the server's identity — a misconfigured
	// cluster, which must fail loudly rather than fork the corpus.
	CodeWrongPartition = "wrong-partition"
	// CodeBatchTooLarge rejects a SearchBatchRequest carrying more than
	// MaxBatchQueries queries. The sender must split the batch.
	CodeBatchTooLarge = "batch-too-large"
)

// ErrorMsg reports a request failure. Code, when set, is one of the Code*
// constants and tells a failover-aware peer how to react; Text is for
// humans.
type ErrorMsg struct {
	Text string
	Code string
}

// TraceContextWire is the propagated part of a distributed trace: the
// trace ID (128 bits as two words), the sender's span ID, and whether the
// trace is sampled. Receivers validate before adopting: a zero trace or
// span ID (a truncated or garbage frame) is ignored rather than continued.
type TraceContextWire struct {
	TraceHi, TraceLo uint64
	SpanID           uint64
	Sampled          bool
}

// SpanAttrWire is one key/value annotation on a wire span.
type SpanAttrWire struct {
	Key, Value string
}

// SpanWire is one completed span echoed on a response: the stage's
// position in the trace (trace ID, own and parent span IDs), the recording
// process, and its timing. StartUnixNano carries the wall-clock start so
// the origin can order siblings; DurationNanos is the span's length.
type SpanWire struct {
	TraceHi, TraceLo uint64
	SpanID           uint64
	ParentID         uint64
	Service          string
	Name             string
	StartUnixNano    int64
	DurationNanos    int64
	Attrs            []SpanAttrWire
}

// PublicKeyWire carries an RSA public key.
type PublicKeyWire struct {
	N, E []byte
}

// FromPublicKey converts a key for the wire.
func FromPublicKey(p *blindrsa.PublicKey) PublicKeyWire {
	return PublicKeyWire{N: p.N.Bytes(), E: p.E.Bytes()}
}

// ToPublicKey parses a wire key.
func (w PublicKeyWire) ToPublicKey() (*blindrsa.PublicKey, error) {
	if len(w.N) == 0 || len(w.E) == 0 {
		return nil, fmt.Errorf("protocol: empty public key")
	}
	return &blindrsa.PublicKey{
		N: new(big.Int).SetBytes(w.N),
		E: new(big.Int).SetBytes(w.E),
	}, nil
}

// ParamsWire carries core.Params.
type ParamsWire struct {
	R, D, Bins, U, V, RSABits int
	Levels                    []int
}

// FromParams converts scheme parameters for the wire.
func FromParams(p core.Params) ParamsWire {
	return ParamsWire{R: p.R, D: p.D, Bins: p.Bins, U: p.U, V: p.V,
		RSABits: p.RSABits, Levels: append([]int(nil), p.Levels...)}
}

// ToParams parses wire parameters and validates them.
func (w ParamsWire) ToParams() (core.Params, error) {
	p := core.Params{R: w.R, D: w.D, Bins: w.Bins, U: w.U, V: w.V,
		RSABits: w.RSABits, Levels: rank.Levels(append([]int(nil), w.Levels...))}
	if err := p.Validate(); err != nil {
		return core.Params{}, err
	}
	return p, nil
}

// EnrollRequest registers a user's signature key with the data owner.
type EnrollRequest struct {
	UserID  string
	UserPub PublicKeyWire
}

// EnrollResponse delivers the enrollment package: scheme parameters, the
// owner's public key and the U random-keyword trapdoors (step 0 of the
// protocol; sent over the user↔owner channel, never to the server).
type EnrollResponse struct {
	Params          ParamsWire
	OwnerPub        PublicKeyWire
	RandomTrapdoors [][]byte // marshaled bitindex vectors
}

// TrapdoorRequest asks for the secret keys of the given bins (step 1 of
// Figure 1). Sig authenticates SignableTrapdoor(UserID, BinIDs).
type TrapdoorRequest struct {
	UserID string
	BinIDs []int
	Sig    []byte
}

// TrapdoorResponse returns the per-bin HMAC keys, parallel to BinIDs.
type TrapdoorResponse struct {
	BinIDs []int
	Keys   [][]byte
}

// BlindDecryptRequest carries a blinded ciphertext z (step 4 of Figure 1).
// Sig authenticates SignableBlindDecrypt(UserID, Z).
type BlindDecryptRequest struct {
	UserID string
	Z      []byte
	Sig    []byte
}

// BlindDecryptResponse returns z̄ = z^d mod N.
type BlindDecryptResponse struct {
	ZBar []byte
}

// UploadRequest stores one document at the cloud server (owner → server).
type UploadRequest struct {
	DocID      string
	Levels     [][]byte // marshaled level indices
	Ciphertext []byte
	EncKey     []byte
}

// UploadResponse acknowledges an upload.
type UploadResponse struct {
	Stored int // total documents now stored
}

// DeleteRequest removes one document — payload, wrapped key and every
// index level — from the cloud server (owner → server, the inverse of
// UploadRequest). On a durably backed server the deletion is logged before
// it is acknowledged.
type DeleteRequest struct {
	DocID string
}

// DeleteResponse acknowledges a deletion.
type DeleteResponse struct {
	Stored int // total documents remaining
}

// SearchRequest submits one r-bit query index (step 2 of Figure 1). The
// client sends every search as a SearchBatchRequest; a cloud daemon answers
// this single-query frame, which older clients send, as a batch of one.
type SearchRequest struct {
	Query []byte // marshaled bitindex vector
	TopK  int    // τ; 0 returns all matches
}

// MatchWire is one ranked hit: core.Match itself, sent as it left the scan.
// Gob matches fields by name, so a peer whose match still declares the
// paper's α·r-bit Meta field interoperates both ways: its Meta is skipped
// on decode here and decodes as nil there.
type MatchWire = core.Match

// SearchResponse returns rank-ordered matches.
type SearchResponse struct {
	Matches []MatchWire
}

// SearchBatchRequest submits several r-bit query indices to be evaluated in
// one sharded pass over the server's store. Semantically equivalent to one
// SearchRequest per query, but a single frame each way and a single scan of
// every index shard.
type SearchBatchRequest struct {
	Queries [][]byte // marshaled bitindex vectors
	TopK    int      // τ applied to every query; 0 returns all matches
}

// MaxBatchQueries bounds the queries one SearchBatchRequest may carry. A
// cloud daemon rejects a larger batch with CodeBatchTooLarge before decoding
// any query, and the client refuses to send one: without the bound a single
// 64 MiB frame of 56-byte queries asks the server to decode about a million
// vectors and gather every match of each before the reply could fail
// MaxFrameSize.
const MaxBatchQueries = 1024

// SearchBatchResponse returns one rank-ordered match list per query, in
// request order.
type SearchBatchResponse struct {
	Results [][]MatchWire
}

// ReplicaSubscribeRequest opens a replication stream: a follower asks the
// primary for every write-ahead-log record from position From (the
// follower's own log sequence number) onward. It is the first and only
// request on a replication connection; after the response the primary
// pushes ReplicaSnapshotChunk and ReplicaRecordBatch messages while the
// follower sends ReplicaAckMsg back on the same connection.
type ReplicaSubscribeRequest struct {
	From uint64
	// Term is the follower's promotion term. A primary whose own term is
	// lower has been failed over: it refuses the stream with CodeStaleTerm
	// and demotes itself. (Zero-valued on pre-failover followers, which any
	// term accepts.)
	Term uint64
	// Bootstrap asks the primary to ship a full checkpoint instead of log
	// records, wiping the follower's history. A follower sets it after a
	// CodeDiverged rejection told it its log is not a prefix of the
	// primary's.
	Bootstrap bool
}

// ReplicaSubscribeResponse opens the primary's side of the stream. If the
// primary no longer retains log records back to the requested position, it
// bootstraps the follower instead: SnapshotSize > 0 announces a checkpoint
// covering positions [0, SnapshotLSN), delivered next as one or more
// ReplicaSnapshotChunk messages, after which records stream from
// SnapshotLSN. Position is the primary's log position at subscribe time.
type ReplicaSubscribeResponse struct {
	SnapshotLSN  uint64
	SnapshotSize int    // total checkpoint bytes to follow; 0 = no bootstrap
	Position     uint64 // primary position at subscribe time
	Term         uint64 // primary promotion term; followers reject lower-term streams
	TermStart    uint64 // position where the primary's term began (divergence boundary)
}

// ReplicaSnapshotChunk carries one slice of the bootstrap checkpoint, in
// order. Last marks the final chunk; the reassembled bytes are a complete
// store checkpoint file (MKSESTO3).
type ReplicaSnapshotChunk struct {
	Data []byte
	Last bool
}

// ReplicaRecordBatch carries consecutive write-ahead-log record payloads:
// Records[i] is the mutation at position From+i. Position is the primary's
// log position after the batch, so the follower can compute its own lag. An
// empty batch is a heartbeat: it carries a fresh Position (and proves the
// primary alive) without any records.
type ReplicaRecordBatch struct {
	From     uint64
	Records  [][]byte
	Position uint64
	Term     uint64 // sender's promotion term; a follower on a higher term stops applying
}

// ReplicaAckMsg reports the follower's durably applied position back to the
// primary, which exposes it as that follower's acknowledged position (the
// basis of lag reporting). Sent after each applied batch and heartbeat.
// Term is the follower's promotion term: a primary that hears a higher term
// in an ack has been failed over behind its back and demotes itself.
type ReplicaAckMsg struct {
	Position uint64
	Term     uint64
}

// PromoteRequest flips a live follower to primary in place: stop following,
// raise the promotion term to Term, start accepting writes. Term is the
// caller's (the observer's) claim — it must exceed the daemon's current
// term, or the promote is rejected with CodeStaleTerm. Re-sending the same
// term is idempotent, so a promote interrupted by a crash can be retried.
type PromoteRequest struct {
	Term uint64
}

// PromoteResponse acknowledges a promotion with the daemon's resulting term
// and log position (the new term's start — the divergence boundary for
// rejoining nodes).
type PromoteResponse struct {
	Term     uint64
	Position uint64
}

// ReconfigureRequest repoints a daemon at a new primary. Term authenticates
// the instruction: a daemon whose own term exceeds it rejects with
// CodeStaleTerm (the instruction is from a stale observer view). A follower
// drops its stream and re-subscribes to Primary; an old primary receiving
// this learns it was failed over, demotes itself to read-only, and rejoins
// as a follower of Primary. An empty Primary detaches the daemon into
// standalone (no-replication) mode.
type ReconfigureRequest struct {
	Primary string
	Term    uint64
}

// ReconfigureResponse acknowledges a reconfiguration.
type ReconfigureResponse struct {
	Term uint64 // the daemon's term after applying the instruction
}

// StatsRequest asks a cloud daemon for its operational counters and where
// it stands in the replicated log: the one status verb for operators, read
// balancers and the failover observer.
type StatsRequest struct{}

// CacheStatsWire reports the daemon's query-result cache counters
// (internal/qcache). Enabled is false — and every other field zero — on a
// daemon started without -cache-mb.
type CacheStatsWire struct {
	Enabled       bool
	Hits          uint64
	Misses        uint64
	Evictions     uint64 // dropped by the LRU byte budget
	Invalidations uint64 // dropped because the store mutated since they were cached
	Entries       int
	Bytes         int64
	MaxBytes      int64
}

// FollowerWire is one connected follower as seen by the primary.
type FollowerWire struct {
	Addr  string // follower's remote address on the replication stream
	Acked uint64 // last position the follower acknowledged applying
}

// StatsResponse is a point-in-time view of one cloud daemon. WALPosition is
// the daemon's own log sequence number (zero on a memory-only daemon, where
// Durable is false). On a follower, Replica is true, ReplicaConnected says
// whether the stream is currently up, and PrimaryPosition is the newest
// position heard from the primary — PrimaryPosition minus WALPosition is
// the replication lag in records; on a primary or standalone daemon the two
// positions are equal and Followers lists every connected replication
// stream, sorted by address.
type StatsResponse struct {
	NumDocuments int
	NumShards    int
	Epoch        uint64 // mutation epoch (the query-result cache's validity clock)

	Durable     bool
	WALPosition uint64

	Replica          bool
	ReplicaConnected bool
	PrimaryPosition  uint64
	Term             uint64 // promotion (fencing) term; bumps on every failover
	Followers        []FollowerWire

	// Partition identity (see ClusterInfoResponse); Partitions is 0 on a
	// daemon that is not part of a cluster.
	Partition  int
	Partitions int

	Cache CacheStatsWire
}

// ClusterInfoRequest asks a cloud daemon for its partition identity — the
// partition-map exchange a fat client performs on every cluster dial, so a
// miswired address list (wrong order, wrong count, a server from another
// cluster) is caught before any request is routed by the map.
type ClusterInfoRequest struct{}

// ClusterInfoResponse reports the daemon's static cluster identity as given
// by -partition i/P: Partition is its 0-based index, Partitions the total
// count. Partitions is 0 on a daemon started without -partition (standalone
// or single-node deployments).
type ClusterInfoResponse struct {
	Partition  int
	Partitions int
}

// FetchRequest retrieves one encrypted document (step 3 of Figure 1).
type FetchRequest struct {
	DocID string
}

// FetchResponse carries the ciphertext and the RSA-wrapped key.
type FetchResponse struct {
	DocID      string
	Ciphertext []byte
	EncKey     []byte
}

// Conn wraps a stream with framed gob encode/decode. Not safe for
// concurrent use; callers serialize request/response exchanges.
type Conn struct {
	rw io.ReadWriter
}

// NewConn wraps a transport stream.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// Send gob-encodes one message into a frame.
func (c *Conn) Send(m *Message) error {
	var buf frameBuffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("protocol: encoding message: %w", err)
	}
	return WriteFrame(c.rw, buf.b)
}

// Recv reads and decodes one message.
func (c *Conn) Recv() (*Message, error) {
	payload, err := ReadFrame(c.rw)
	if err != nil {
		return nil, err
	}
	var m Message
	if err := gob.NewDecoder(byteReader{payload, new(int)}).Decode(&m); err != nil {
		return nil, fmt.Errorf("protocol: decoding message: %w", err)
	}
	return &m, nil
}

// RemoteError is an ErrorMsg reply surfaced as an error: the peer received
// the request and rejected it. Distinguishing it from a transport failure
// matters to read balancers — a rejected request would be rejected by any
// server, so it is not grounds for failing over, while a broken connection
// is.
type RemoteError struct {
	Text string
	Code string // machine-readable rejection class (Code* constants), if any
}

// Error renders the rejection with the same text errors.Is-style callers
// matched before RemoteError existed.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("protocol: remote error: %s", e.Text)
}

// Roundtrip sends a request and waits for the reply, surfacing ErrorMsg
// replies as *RemoteError.
func (c *Conn) Roundtrip(m *Message) (*Message, error) {
	if err := c.Send(m); err != nil {
		return nil, err
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if resp.Error != nil {
		return nil, &RemoteError{Text: resp.Error.Text, Code: resp.Error.Code}
	}
	return resp, nil
}

// Call is the one-shot exchange: dial addr, send m, read the reply, close.
// timeout bounds the dial, and then — separately — the send plus receive, so
// a daemon that accepts and never answers costs the caller at most twice
// the timeout instead of wedging it.
func Call(addr string, m *Message, timeout time.Duration) (*Message, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	return NewConn(conn).Roundtrip(m)
}

type frameBuffer struct{ b []byte }

func (f *frameBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

type byteReader struct {
	b   []byte
	pos *int
}

func (r byteReader) Read(p []byte) (int, error) {
	if *r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[*r.pos:])
	*r.pos += n
	return n, nil
}

// SignableTrapdoor produces the canonical byte string a user signs in a
// trapdoor request. Deterministic encoding is what makes signatures
// verifiable: both sides derive the same bytes from the same fields.
func SignableTrapdoor(userID string, binIDs []int) []byte {
	out := []byte("mkse/trapdoor\x00" + userID + "\x00")
	var tmp [4]byte
	for _, b := range binIDs {
		binary.BigEndian.PutUint32(tmp[:], uint32(b))
		out = append(out, tmp[:]...)
	}
	return out
}

// SignableBlindDecrypt produces the canonical byte string a user signs in a
// blind-decryption request.
func SignableBlindDecrypt(userID string, z []byte) []byte {
	out := []byte("mkse/blind-decrypt\x00" + userID + "\x00")
	return append(out, z...)
}
