package protocol

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// epochEnrollResponse, epochTrapdoorResponse and epochMessage mirror an
// owner's replies as they were sent while bin keys could rotate: each reply
// carried the key epoch, and a trapdoor reply could carry precomputed
// keyword vectors instead of bin keys.
type epochEnrollResponse struct {
	Params          ParamsWire
	OwnerPub        PublicKeyWire
	Epoch           int64
	RandomTrapdoors [][]byte
}

type epochTrapdoorResponse struct {
	BinIDs  []int
	Keys    [][]byte
	Vectors map[string][]byte
	Epoch   int64
}

type epochMessage struct {
	EnrollResp   *epochEnrollResponse
	TrapdoorResp *epochTrapdoorResponse
}

// recvOld frames an old-shape message and decodes it as today's Message.
func recvOld(t *testing.T, old *epochMessage) *Message {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	m, err := NewConn(&wire).Recv()
	if err != nil {
		t.Fatalf("client failed to decode an epoch-carrying owner reply: %v", err)
	}
	return m
}

func TestEpochOwnerRepliesDecodeOnClient(t *testing.T) {
	// An owner that still sends epochs and vectors answers a client that
	// has neither field: gob skips them, the rest arrives intact.
	params := ParamsWire{R: 448, D: 6, Bins: 250, U: 2, V: 1, RSABits: 1024, Levels: []int{1, 5}}
	pub := PublicKeyWire{N: []byte{0xc5, 0x01}, E: []byte{1, 0, 1}}
	decoys := [][]byte{{0xff, 0x0f}, {0xf0, 0x01}}
	m := recvOld(t, &epochMessage{EnrollResp: &epochEnrollResponse{
		Params: params, OwnerPub: pub, Epoch: 1, RandomTrapdoors: decoys,
	}})
	want := &EnrollResponse{Params: params, OwnerPub: pub, RandomTrapdoors: decoys}
	if !reflect.DeepEqual(m.EnrollResp, want) {
		t.Fatalf("enroll reply mangled: %+v, want %+v", m.EnrollResp, want)
	}

	m = recvOld(t, &epochMessage{TrapdoorResp: &epochTrapdoorResponse{
		BinIDs:  []int{3, 249},
		Keys:    [][]byte{{1, 2}, {3, 4}},
		Vectors: map[string][]byte{"kw": {5, 6}},
		Epoch:   1,
	}})
	wantTD := &TrapdoorResponse{BinIDs: []int{3, 249}, Keys: [][]byte{{1, 2}, {3, 4}}}
	if !reflect.DeepEqual(m.TrapdoorResp, wantTD) {
		t.Fatalf("trapdoor reply mangled: %+v, want %+v", m.TrapdoorResp, wantTD)
	}
}
