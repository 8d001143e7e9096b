package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mkse/internal/core"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader, seeded
// with a real V3 checkpoint and corruptions of it. Malformed input must
// surface as an error — never a panic, and never an allocation sized by a
// corrupt header field. Whatever loads must save to a checkpoint that loads
// back to the identical state: saving is idempotent after one load.
func FuzzLoadCheckpoint(f *testing.F) {
	_, srv, _ := populatedServer(f)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, srv, CheckpointMeta{LSN: 12, Term: 2, TermStart: 5}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-document
	f.Add(valid[:40])           // torn mid-header
	hugeR := bytes.Clone(valid)
	binary.BigEndian.PutUint64(hugeR[32:], 1<<30) // R, the first parameter
	f.Add(hugeR)
	manyDocs := bytes.Clone(valid)
	binary.BigEndian.PutUint64(manyDocs[32+8*10:], 1<<29) // document count after 7+3 header ints
	f.Add(manyDocs)
	f.Add([]byte("MKSESTO3"))
	f.Add([]byte{})

	mk := func(p core.Params) (*core.Server, error) { return core.NewServerSharded(p, 1, 1) }
	resave := func(t *testing.T, srv *core.Server, meta CheckpointMeta) []byte {
		var out bytes.Buffer
		if err := SaveCheckpoint(&out, srv, meta); err != nil {
			t.Fatalf("saving a loaded checkpoint: %v", err)
		}
		return out.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, meta, err := LoadCheckpointBytes(data, mk)
		if err != nil {
			return
		}
		once := resave(t, srv, meta)
		again, meta2, err := LoadCheckpointBytes(once, mk)
		if err != nil {
			t.Fatalf("reloading a saved checkpoint: %v", err)
		}
		if meta2 != meta {
			t.Fatalf("reloaded meta %+v, saved %+v", meta2, meta)
		}
		if !bytes.Equal(resave(t, again, meta2), once) {
			t.Fatal("save → load → save is not byte-identical")
		}
	})
}
