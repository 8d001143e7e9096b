package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"mkse/internal/bitindex"
)

// FuzzWALRecord fuzzes the record codec with arbitrary bytes: corrupt CRCs,
// truncated frames and oversized length fields must all surface as
// ErrCorruptRecord — never a panic, and never an allocation driven by a
// corrupt length field (DecodeRecord only ever slices its input). Whatever
// decodes must re-encode to the identical frame, and every payload must
// round-trip.
func FuzzWALRecord(f *testing.F) {
	level, err := bitindex.NewOnes(64).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := AppendRecord(nil, appendUploadOp(nil, "doc-1", [][]byte{level}, []byte("ct"), []byte("ek")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	crcFlip := bytes.Clone(valid)
	crcFlip[5] ^= 0xFF
	f.Add(crcFlip) // checksum mismatch
	oversize := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(oversize, 1<<31) // absurd length field
	f.Add(oversize)
	del, err := AppendRecord(nil, appendDeleteOp(nil, "doc-2"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(del)
	term, err := AppendRecord(nil, appendTermOp(nil, 7)) // written on every promotion
	if err != nil {
		f.Fatal(err)
	}
	f.Add(term)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // empty payload, zero CRC

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("DecodeRecord error %v is not ErrCorruptRecord", err)
			}
		} else {
			if n < recordHeaderSize || n > len(data) {
				t.Fatalf("DecodeRecord consumed %d of %d bytes", n, len(data))
			}
			// A decoded frame re-encodes to the identical bytes.
			re, err := AppendRecord(nil, payload)
			if err != nil {
				t.Fatalf("re-encoding decoded payload: %v", err)
			}
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encoded frame differs from input")
			}
			// The op parser must be equally panic-free on whatever the
			// frame carried.
			if op, err := decodeOp(payload); err == nil {
				switch op.kind {
				case opUpload, opDelete, opTerm:
				default:
					t.Fatalf("decodeOp accepted unknown kind %d", op.kind)
				}
			} else if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("decodeOp error %v is not ErrCorruptRecord", err)
			}
		}

		// Any input, treated as a payload, must round-trip through the
		// framing (bounded by MaxRecordSize, which fuzz inputs are).
		framed, err := AppendRecord(nil, data)
		if err != nil {
			t.Fatalf("AppendRecord(%d bytes): %v", len(data), err)
		}
		got, n2, err := DecodeRecord(framed)
		if err != nil || n2 != len(framed) || !bytes.Equal(got, data) {
			t.Fatalf("round trip failed: n=%d err=%v", n2, err)
		}
	})
}

// FuzzApplyReplicated feeds arbitrary bytes to a follower as replicated
// records, which arrive from the network. Every input must either be refused
// before it reaches the log — an error, the position unchanged and the engine
// still taking records — or be logged and applied, advancing the position by
// exactly one: only mutations that cannot fail to apply may reach the log.
func FuzzApplyReplicated(f *testing.F) {
	p := testParams()
	rng := rand.New(rand.NewSource(81))
	for _, o := range genOps(rng, p, 6) {
		if o.del {
			f.Add(appendDeleteOp(nil, o.id))
			continue
		}
		levels := make([][]byte, len(o.si.Levels))
		for i, l := range o.si.Levels {
			raw, err := l.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			levels[i] = raw
		}
		f.Add(appendUploadOp(nil, o.id, levels, o.doc.Ciphertext, o.doc.EncKey))
		f.Add(appendUploadOp(nil, o.id, levels[:1], o.doc.Ciphertext, o.doc.EncKey)) // too few levels
	}
	f.Add(appendDeleteOp(nil, "never-stored"))
	f.Add(appendTermOp(nil, 3))
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0, 0, 0})

	// One engine per fuzz process: the log only grows, and the invariant
	// must hold whatever state earlier inputs left behind.
	eng, err := Open(f.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(eng.Crash)

	f.Fuzz(func(t *testing.T, payload []byte) {
		before := eng.Position()
		err := eng.ApplyReplicated(payload)
		after := eng.Position()
		if err == nil {
			if after != before+1 {
				t.Fatalf("applied record moved the position %d -> %d", before, after)
			}
			return
		}
		if after != before {
			t.Fatalf("refused record (%v) moved the position %d -> %d", err, before, after)
		}
		eng.mu.Lock()
		broken := eng.broken
		eng.mu.Unlock()
		if broken {
			t.Fatalf("record reached the log but failed to apply: %v", err)
		}
	})
}

// The specific rejection cases the fuzz seeds encode, as a plain test so
// they run on every `go test`.
func TestDecodeRecordRejections(t *testing.T) {
	valid, err := AppendRecord(nil, appendDeleteOp(nil, "doc-9"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     valid[:recordHeaderSize-1],
		"truncated body":   valid[:len(valid)-1],
		"crc mismatch":     append(bytes.Clone(valid[:len(valid)-1]), valid[len(valid)-1]^1),
		"oversized length": binary.LittleEndian.AppendUint32(nil, MaxRecordSize+1),
	}
	for name, data := range cases {
		if _, _, err := DecodeRecord(data); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s: got %v, want ErrCorruptRecord", name, err)
		}
	}
	if _, _, err := DecodeRecord(valid); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if _, err := AppendRecord(nil, make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("AppendRecord accepted an oversized payload")
	}
}
