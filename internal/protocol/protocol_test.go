package protocol

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"net"
	"reflect"
	"testing"
	"time"

	"mkse/internal/blindrsa"
	"mkse/internal/core"
	"mkse/internal/faultnet"
	"mkse/internal/rank"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAA}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame round trip mismatch: %d bytes vs %d", len(got), len(p))
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB announced
	if _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrameSize+1)); err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 1, 2, 3}) // announces 10, delivers 3
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream gave %v, want io.EOF", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	msg := &Message{TrapdoorReq: &TrapdoorRequest{
		UserID: "alice",
		BinIDs: []int{3, 17, 99},
		Sig:    []byte{1, 2, 3},
	}}
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.TrapdoorReq == nil {
		t.Fatal("TrapdoorReq missing after round trip")
	}
	if got.TrapdoorReq.UserID != "alice" || len(got.TrapdoorReq.BinIDs) != 3 {
		t.Errorf("round trip mangled request: %+v", got.TrapdoorReq)
	}
	if got.SearchReq != nil || got.Error != nil {
		t.Error("unrelated fields populated")
	}
}

func TestRoundtripSurfacesRemoteErrors(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		sc := NewConn(server)
		if _, err := sc.Recv(); err != nil {
			return
		}
		_ = sc.Send(&Message{Error: &ErrorMsg{Text: "bin out of range"}})
	}()
	cc := NewConn(client)
	_, err := cc.Roundtrip(&Message{FetchReq: &FetchRequest{DocID: "x"}})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("bin out of range")) {
		t.Errorf("remote error not surfaced: %v", err)
	}
}

func TestPublicKeyWireRoundTrip(t *testing.T) {
	key, err := blindrsa.GenerateKey(1024)
	if err != nil {
		t.Fatal(err)
	}
	w := FromPublicKey(key.Public())
	back, err := w.ToPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(key.N) != 0 || back.E.Cmp(key.E) != 0 {
		t.Error("public key round trip mismatch")
	}
}

func TestPublicKeyWireRejectsEmpty(t *testing.T) {
	if _, err := (PublicKeyWire{}).ToPublicKey(); err == nil {
		t.Error("empty key accepted")
	}
}

func TestParamsWireRoundTrip(t *testing.T) {
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	back, err := FromParams(p).ToParams()
	if err != nil {
		t.Fatal(err)
	}
	if back.R != p.R || back.D != p.D || back.Bins != p.Bins ||
		back.U != p.U || back.V != p.V || back.RSABits != p.RSABits ||
		len(back.Levels) != len(p.Levels) {
		t.Errorf("params round trip mismatch: %+v vs %+v", back, p)
	}
}

func TestParamsWireValidates(t *testing.T) {
	if _, err := (ParamsWire{R: -1}).ToParams(); err == nil {
		t.Error("invalid wire params accepted")
	}
}

func TestSignableEncodingsDeterministicAndDistinct(t *testing.T) {
	a := SignableTrapdoor("alice", []int{1, 2})
	b := SignableTrapdoor("alice", []int{1, 2})
	if !bytes.Equal(a, b) {
		t.Error("SignableTrapdoor not deterministic")
	}
	if bytes.Equal(a, SignableTrapdoor("alice", []int{2, 1})) {
		t.Error("bin order not bound by signature")
	}
	if bytes.Equal(a, SignableTrapdoor("bob", []int{1, 2})) {
		t.Error("user ID not bound by signature")
	}
	z := big.NewInt(123456).Bytes()
	if bytes.Equal(SignableBlindDecrypt("alice", z), SignableTrapdoor("alice", []int{1, 2})) {
		t.Error("domain separation missing between message types")
	}
	if bytes.Equal(SignableBlindDecrypt("alice", z), SignableBlindDecrypt("alice", big.NewInt(9).Bytes())) {
		t.Error("payload not bound by blind-decrypt signature")
	}
}

func TestConnOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		sc := NewConn(conn)
		m, err := sc.Recv()
		if err != nil {
			done <- err
			return
		}
		if m.SearchReq == nil {
			done <- io.ErrUnexpectedEOF
			return
		}
		done <- sc.Send(&Message{SearchResp: &SearchResponse{
			Matches: []MatchWire{{DocID: "doc-1", Rank: 2}},
		}})
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cc := NewConn(conn)
	resp, err := cc.Roundtrip(&Message{SearchReq: &SearchRequest{Query: []byte{1, 2, 3}, TopK: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SearchResp == nil || len(resp.SearchResp.Matches) != 1 {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if m := resp.SearchResp.Matches[0]; m.DocID != "doc-1" || m.Rank != 2 {
		t.Errorf("match = %+v", m)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSearchBatchMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	req := &Message{SearchBatchReq: &SearchBatchRequest{
		Queries: [][]byte{{1, 2}, {3, 4, 5}},
		TopK:    7,
	}}
	if err := c.Send(req); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.SearchBatchReq == nil {
		t.Fatal("SearchBatchReq missing after round trip")
	}
	if len(got.SearchBatchReq.Queries) != 2 || got.SearchBatchReq.TopK != 7 {
		t.Errorf("round trip mangled request: %+v", got.SearchBatchReq)
	}
	resp := &Message{SearchBatchResp: &SearchBatchResponse{
		Results: [][]MatchWire{
			{{DocID: "a", Rank: 3}},
			nil,
		},
	}}
	if err := c.Send(resp); err != nil {
		t.Fatal(err)
	}
	back, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if back.SearchBatchResp == nil || len(back.SearchBatchResp.Results) != 2 {
		t.Fatalf("response round trip mangled: %+v", back.SearchBatchResp)
	}
	if m := back.SearchBatchResp.Results[0][0]; m.DocID != "a" || m.Rank != 3 {
		t.Errorf("match round trip mangled: %+v", m)
	}
}

func TestDeleteMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(&Message{DeleteReq: &DeleteRequest{DocID: "doc-7"}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.DeleteReq == nil || got.DeleteReq.DocID != "doc-7" {
		t.Fatalf("DeleteReq mangled: %+v", got.DeleteReq)
	}
	if got.UploadReq != nil || got.Error != nil {
		t.Error("unrelated fields populated")
	}
	if err := c.Send(&Message{DeleteResp: &DeleteResponse{Stored: 41}}); err != nil {
		t.Fatal(err)
	}
	got, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.DeleteResp == nil || got.DeleteResp.Stored != 41 {
		t.Fatalf("DeleteResp mangled: %+v", got.DeleteResp)
	}
}

func TestStatsMessagesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(&Message{StatsReq: &StatsRequest{}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.StatsReq == nil {
		t.Fatalf("StatsReq mangled: %+v", got)
	}
	resp := &StatsResponse{
		NumDocuments: 123, NumShards: 8, Epoch: 456,
		Durable: true, WALPosition: 789,
		Replica: true, ReplicaConnected: true, PrimaryPosition: 800, Term: 3,
		Followers: []FollowerWire{{Addr: "10.0.0.7:1234", Acked: 41}, {Addr: "10.0.0.8:1234", Acked: 42}},
		Cache: CacheStatsWire{
			Enabled: true, Hits: 10, Misses: 3, Evictions: 1, Invalidations: 2,
			Entries: 7, Bytes: 4096, MaxBytes: 1 << 20,
		},
	}
	if err := c.Send(&Message{StatsResp: resp}); err != nil {
		t.Fatal(err)
	}
	got, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.StatsResp == nil || !reflect.DeepEqual(got.StatsResp, resp) {
		t.Fatalf("StatsResp mangled: %+v", got.StatsResp)
	}
}

func TestReplicationMessagesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	msgs := []*Message{
		{ReplicaSubscribeReq: &ReplicaSubscribeRequest{From: 42}},
		{ReplicaSubscribeResp: &ReplicaSubscribeResponse{SnapshotLSN: 40, SnapshotSize: 9, Position: 50}},
		{ReplicaSnapshot: &ReplicaSnapshotChunk{Data: []byte("MKSESTO2!"), Last: true}},
		{ReplicaRecords: &ReplicaRecordBatch{From: 40, Records: [][]byte{{1, 2}, {3}}, Position: 42}},
		{ReplicaRecords: &ReplicaRecordBatch{From: 42, Position: 42}}, // heartbeat
		{ReplicaAck: &ReplicaAckMsg{Position: 42}},
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := c.Recv()
	if err != nil || sub.ReplicaSubscribeReq == nil || sub.ReplicaSubscribeReq.From != 42 {
		t.Fatalf("subscribe request mangled: %+v (%v)", sub, err)
	}
	resp, err := c.Recv()
	if err != nil || resp.ReplicaSubscribeResp == nil || resp.ReplicaSubscribeResp.SnapshotLSN != 40 ||
		resp.ReplicaSubscribeResp.SnapshotSize != 9 || resp.ReplicaSubscribeResp.Position != 50 {
		t.Fatalf("subscribe response mangled: %+v (%v)", resp, err)
	}
	snap, err := c.Recv()
	if err != nil || snap.ReplicaSnapshot == nil || !snap.ReplicaSnapshot.Last ||
		string(snap.ReplicaSnapshot.Data) != "MKSESTO2!" {
		t.Fatalf("snapshot chunk mangled: %+v (%v)", snap, err)
	}
	batch, err := c.Recv()
	if err != nil || batch.ReplicaRecords == nil || batch.ReplicaRecords.From != 40 ||
		len(batch.ReplicaRecords.Records) != 2 || batch.ReplicaRecords.Position != 42 {
		t.Fatalf("record batch mangled: %+v (%v)", batch, err)
	}
	hb, err := c.Recv()
	if err != nil || hb.ReplicaRecords == nil || len(hb.ReplicaRecords.Records) != 0 ||
		hb.ReplicaRecords.Position != 42 {
		t.Fatalf("heartbeat mangled: %+v (%v)", hb, err)
	}
	ack, err := c.Recv()
	if err != nil || ack.ReplicaAck == nil || ack.ReplicaAck.Position != 42 {
		t.Fatalf("ack mangled: %+v (%v)", ack, err)
	}
}

func TestRemoteErrorType(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		sc := NewConn(server)
		if _, err := sc.Recv(); err != nil {
			return
		}
		_ = sc.Send(&Message{Error: &ErrorMsg{Text: "nope"}})
	}()
	_, err := NewConn(client).Roundtrip(&Message{FetchReq: &FetchRequest{DocID: "x"}})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Text != "nope" {
		t.Fatalf("want *RemoteError{nope}, got %v", err)
	}
}

// serveStats answers every request on l with an empty StatsResponse: the
// smallest peer Call can complete an exchange with.
func serveStats(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			pc := NewConn(conn)
			for {
				if _, err := pc.Recv(); err != nil {
					return
				}
				if err := pc.Send(&Message{StatsResp: &StatsResponse{}}); err != nil {
					return
				}
			}
		}()
	}
}

// A peer that accepts the connection and never answers — the half-open
// network a stalled proxy models — must cost Call its timeout, not forever;
// once the stall lifts the same address answers again.
func TestCallBoundsTheReadAgainstAStalledPeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go serveStats(l)
	proxy, err := faultnet.Listen(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	req := &Message{StatsReq: &StatsRequest{}}
	if resp, err := Call(proxy.Addr(), req, time.Second); err != nil || resp.StatsResp == nil {
		t.Fatalf("call through a healthy proxy: %v", err)
	}

	proxy.Stall()
	const timeout = 150 * time.Millisecond
	start := time.Now()
	_, err = Call(proxy.Addr(), req, timeout)
	elapsed := time.Since(start)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("call against a stalled peer: got %v, want a timeout", err)
	}
	if elapsed > 10*timeout {
		t.Errorf("stalled call took %v, want about %v", elapsed, timeout)
	}

	proxy.Resume()
	if _, err := Call(proxy.Addr(), req, time.Second); err != nil {
		t.Errorf("call after the stall lifted: %v", err)
	}
}
