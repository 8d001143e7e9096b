package protocol

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// metaMatchWire, metaBatchResponse and metaMessage mirror a match reply as
// it was sent while matches still carried the paper's α·r-bit metadata: a
// Meta field holding the marshaled level-1 index.
type metaMatchWire struct {
	DocID string
	Rank  int
	Meta  []byte
}

type metaBatchResponse struct {
	Results [][]metaMatchWire
}

type metaMessage struct {
	SearchBatchResp *metaBatchResponse
}

func TestMetaReplyDecodesOnMetalessClient(t *testing.T) {
	// A daemon that still gathers metadata answers a client that no longer
	// has the field: gob skips Meta, DocID and Rank arrive intact.
	var payload bytes.Buffer
	err := gob.NewEncoder(&payload).Encode(&metaMessage{SearchBatchResp: &metaBatchResponse{
		Results: [][]metaMatchWire{
			{{DocID: "doc-1", Rank: 3, Meta: []byte{0xaa, 0xbb}}, {DocID: "doc-2", Rank: 1, Meta: []byte{0xcc}}},
			nil,
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	m, err := NewConn(&wire).Recv()
	if err != nil {
		t.Fatalf("metadata-free client failed to decode a metadata reply: %v", err)
	}
	want := [][]MatchWire{{{DocID: "doc-1", Rank: 3}, {DocID: "doc-2", Rank: 1}}, nil}
	if m.SearchBatchResp == nil || !reflect.DeepEqual(m.SearchBatchResp.Results, want) {
		t.Fatalf("metadata reply mangled: %+v, want %+v", m.SearchBatchResp, want)
	}
}

func TestMetalessReplyDecodesOnMetaClient(t *testing.T) {
	// A client that still has the Meta field reads a reply without it: the
	// field decodes as nil, which that client ignored anyway.
	var wire bytes.Buffer
	err := NewConn(&wire).Send(&Message{SearchBatchResp: &SearchBatchResponse{
		Results: [][]MatchWire{{{DocID: "doc-1", Rank: 3}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&wire)
	if err != nil {
		t.Fatal(err)
	}
	var old metaMessage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&old); err != nil {
		t.Fatalf("metadata client failed to decode a metadata-free reply: %v", err)
	}
	want := [][]metaMatchWire{{{DocID: "doc-1", Rank: 3, Meta: nil}}}
	if old.SearchBatchResp == nil || !reflect.DeepEqual(old.SearchBatchResp.Results, want) {
		t.Fatalf("metadata-free reply mangled: %+v, want %+v", old.SearchBatchResp, want)
	}
}
