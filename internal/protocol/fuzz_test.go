package protocol

import (
	"bytes"
	"reflect"
	"testing"
)

func TestClusterInfoMessagesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(&Message{ClusterInfoReq: &ClusterInfoRequest{}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.ClusterInfoReq == nil {
		t.Fatalf("ClusterInfoReq mangled: %+v", got)
	}
	resp := &ClusterInfoResponse{Partition: 3, Partitions: 5}
	if err := c.Send(&Message{ClusterInfoResp: resp}); err != nil {
		t.Fatal(err)
	}
	got, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.ClusterInfoResp == nil || *got.ClusterInfoResp != *resp {
		t.Fatalf("ClusterInfoResp mangled: %+v", got.ClusterInfoResp)
	}
}

func TestStatsResponsePartitionFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	resp := &StatsResponse{NumDocuments: 7, Partition: 2, Partitions: 4}
	if err := c.Send(&Message{StatsResp: resp}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.StatsResp == nil || got.StatsResp.Partition != 2 || got.StatsResp.Partitions != 4 {
		t.Fatalf("partition identity mangled in StatsResponse: %+v", got.StatsResp)
	}
}

// frame encodes one message into raw frame bytes for fuzz seeding.
func frame(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := NewConn(&buf).Send(m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// messageSeeds are FuzzMessageDecode's well-formed seeds: every field of
// the Message union is set in at least one (TestMessageSeedsSetEveryField).
func messageSeeds() []*Message {
	seeds := []*Message{
		{ClusterInfoReq: &ClusterInfoRequest{}},
		{ClusterInfoResp: &ClusterInfoResponse{Partition: 1, Partitions: 3}},
		{StatsReq: &StatsRequest{}},
		{StatsResp: &StatsResponse{NumDocuments: 9, Partition: 2, Partitions: 4}},
		{SearchReq: &SearchRequest{Query: []byte{1, 2, 3}, TopK: 5}},
		{Error: &ErrorMsg{Text: "no", Code: CodeWrongPartition}},
		{
			Trace:     &TraceContextWire{TraceHi: 0xdead, TraceLo: 0xbeef, SpanID: 7, Sampled: true},
			SearchReq: &SearchRequest{Query: []byte{9}, TopK: 3},
		},
		{ // garbage trace context: zero IDs claiming sampled
			Trace:     &TraceContextWire{Sampled: true},
			SearchReq: &SearchRequest{Query: []byte{9}, TopK: 3},
		},
		{
			SearchResp: &SearchResponse{Matches: []MatchWire{{DocID: "d", Rank: 1}}},
			Spans: []SpanWire{
				{TraceHi: 1, TraceLo: 2, SpanID: 3, ParentID: 4, Service: "cloud-p0",
					Name: "server:search", StartUnixNano: 12345, DurationNanos: 6789,
					Attrs: []SpanAttrWire{{Key: "verb", Value: "search"}}},
				{Name: "scan"}, // truncated span: zero IDs must decode harmlessly
			},
		},
	}
	// Every search travels as a SearchBatchReq and is answered with a
	// SearchBatchResp: a two-query batch untraced and traced, and a reply
	// with a nil slot and echoed spans.
	batch := &SearchBatchRequest{Queries: [][]byte{{1, 2, 3}, {4, 5}}, TopK: 5}
	seeds = append(seeds,
		&Message{SearchBatchReq: batch},
		&Message{
			Trace:          &TraceContextWire{TraceHi: 0xdead, TraceLo: 0xbeef, SpanID: 7, Sampled: true},
			SearchBatchReq: batch,
		},
		&Message{
			SearchBatchResp: &SearchBatchResponse{Results: [][]MatchWire{{{DocID: "d", Rank: 2}, {DocID: "e", Rank: 1}}, nil}},
			Spans:           []SpanWire{{TraceHi: 1, TraceLo: 2, SpanID: 3, Name: "server:search"}, {Name: "scan"}},
		})
	// The cloud's mutation and fetch verbs.
	seeds = append(seeds,
		&Message{UploadReq: &UploadRequest{DocID: "d", Levels: [][]byte{{1, 2}, {3}}, Ciphertext: []byte{4, 5}, EncKey: []byte{6}}},
		&Message{UploadResp: &UploadResponse{Stored: 3}},
		&Message{DeleteReq: &DeleteRequest{DocID: "d"}},
		&Message{DeleteResp: &DeleteResponse{Stored: 2}},
		&Message{FetchReq: &FetchRequest{DocID: "d"}},
		&Message{FetchResp: &FetchResponse{DocID: "d", Ciphertext: []byte{4, 5}, EncKey: []byte{6}}})
	// A replication stream: subscribe, its reply, a snapshot chunk, a record
	// batch and an ack; then the failover verbs.
	seeds = append(seeds,
		&Message{ReplicaSubscribeReq: &ReplicaSubscribeRequest{From: 40, Term: 2, Bootstrap: true}},
		&Message{ReplicaSubscribeResp: &ReplicaSubscribeResponse{SnapshotLSN: 40, SnapshotSize: 9, Position: 45, Term: 2, TermStart: 30}},
		&Message{ReplicaSnapshot: &ReplicaSnapshotChunk{Data: []byte("MKSESTO3!"), Last: true}},
		&Message{ReplicaRecords: &ReplicaRecordBatch{From: 40, Records: [][]byte{{1, 2}, {3}}, Position: 42, Term: 2}},
		&Message{ReplicaAck: &ReplicaAckMsg{Position: 42, Term: 2}},
		&Message{PromoteReq: &PromoteRequest{Term: 3}},
		&Message{PromoteResp: &PromoteResponse{Term: 3, Position: 42}},
		&Message{ReconfigureReq: &ReconfigureRequest{Primary: "127.0.0.1:7002", Term: 3}},
		&Message{ReconfigureResp: &ReconfigureResponse{Term: 3}})
	// The owner daemon decodes frames from any peer through the same Recv:
	// enrollment, trapdoor and blind-decryption requests and replies.
	pub := PublicKeyWire{N: []byte{0xc5, 0x01, 0x7f}, E: []byte{1, 0, 1}}
	return append(seeds,
		&Message{EnrollReq: &EnrollRequest{UserID: "alice", UserPub: pub}},
		&Message{EnrollResp: &EnrollResponse{
			Params:          ParamsWire{R: 448, D: 6, Bins: 250, U: 60, V: 30, RSABits: 1024, Levels: []int{1, 5, 10}},
			OwnerPub:        pub,
			RandomTrapdoors: [][]byte{{0xff, 0x0f}, {0xf0}},
		}},
		&Message{TrapdoorReq: &TrapdoorRequest{UserID: "alice", BinIDs: []int{3, 249}, Sig: []byte{7, 7}}},
		&Message{TrapdoorResp: &TrapdoorResponse{BinIDs: []int{3, 249}, Keys: [][]byte{{1, 2}, {3, 4}}}},
		&Message{BlindDecryptReq: &BlindDecryptRequest{UserID: "alice", Z: []byte{0x12, 0x34}, Sig: []byte{9}}},
		&Message{BlindDecryptResp: &BlindDecryptResponse{ZBar: []byte{0x56, 0x78}}})
}

// A new Message field needs a fuzz seed before it ships.
func TestMessageSeedsSetEveryField(t *testing.T) {
	typ := reflect.TypeOf(Message{})
	for i := 0; i < typ.NumField(); i++ {
		set := false
		for _, m := range messageSeeds() {
			set = set || !reflect.ValueOf(m).Elem().Field(i).IsZero()
		}
		if !set {
			t.Errorf("no FuzzMessageDecode seed sets Message.%s", typ.Field(i).Name)
		}
	}
}

// FuzzMessageDecode throws hostile bytes at the frame decoder: whatever a
// peer sends, Recv must return a message or an error, never panic or hang.
// Seeds cover every field of the Message union (messageSeeds), plus
// classic framing traps (truncated frames, oversized length prefixes,
// corrupted gob payloads).
func FuzzMessageDecode(f *testing.F) {
	for _, m := range messageSeeds() {
		f.Add(frame(f, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2})                   // length longer than payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	corrupt := frame(f, &Message{ClusterInfoResp: &ClusterInfoResponse{}})
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(bytes.NewBuffer(data))
		for i := 0; i < 4; i++ { // drain several frames, not just the first
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m == nil {
				t.Fatal("Recv returned nil message and nil error")
			}
		}
	})
}
