package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/rank"
)

// populatedServer builds an owner + server pair with a few documents and
// returns both plus the documents for verification.
func populatedServer(t testing.TB) (*core.Owner, *core.Server, []*corpus.Document) {
	t.Helper()
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 16
	owner, err := core.NewOwnerDeterministic(p, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 12, KeywordsPerDoc: 8, Dictionary: corpus.Dictionary(100),
		MaxTermFreq: 15, ContentWords: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
	}
	return owner, srv, docs
}

func TestSaveLoadRoundTrip(t *testing.T) {
	owner, srv, docs := populatedServer(t)
	var buf bytes.Buffer
	if err := Save(&buf, srv); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
	// Parameters survive.
	if restored.Params().R != srv.Params().R || restored.Params().Eta() != srv.Params().Eta() {
		t.Error("parameters not restored")
	}
	// Searches against the restored server behave identically: query a known
	// document's keywords and require it in the results of both.
	target := docs[4]
	user, err := core.NewUser("restore-check", owner.Params(), owner.PublicKey(), owner.RandomTrapdoors())
	if err != nil {
		t.Fatal(err)
	}
	words := target.Keywords()[:2]
	ids := user.BinIDs(words)
	keys, err := owner.TrapdoorKeys(ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := user.InstallTrapdoorKeys(ids, keys); err != nil {
		t.Fatal(err)
	}
	q, err := user.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*core.Server{"original": srv, "restored": restored} {
		matches, err := s.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := false
		for _, m := range matches {
			if m.DocID == target.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("%s server did not return the target document", name)
		}
	}
	// Retrieval from the restored server still decrypts.
	fetched, err := restored.Fetch(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := user.DecryptDocument(fetched, func(z *big.Int) (*big.Int, error) {
		return owner.BlindDecrypt(z)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, target.Content) {
		t.Error("restored document decrypts to wrong plaintext")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTMKSE0rest..."))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("bad magic gave %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := Save(&buf, srv); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate at several depths: header, mid-params, mid-document.
	for _, n := range []int{4, 8, 20, 60, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d bytes accepted", n)
		}
	}
}

func TestLoadRejectsCorruptLength(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := Save(&buf, srv); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Overwrite the document-count field with an absurd value.
	for i := 0; i < 8; i++ {
		data[8+7*8+3*8+i] = 0x7f // somewhere in the header region
	}
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestLoadEmptyServer(t *testing.T) {
	p := core.DefaultParams()
	srv, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, srv); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumDocuments() != 0 {
		t.Errorf("empty snapshot restored %d docs", restored.NumDocuments())
	}
}

// A PR-2-era (V1, "MKSESTO1") snapshot must keep loading through LoadWith
// after the checkpoint format's introduction, reporting LSN 0 through
// LoadCheckpoint. Guards the upgrade path of V1 files written before the
// durable engine existed.
func TestV1SnapshotBackCompat(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := Save(&buf, srv); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "MKSESTO1" {
		t.Fatalf("Save wrote magic %q, want the V1 magic (PR-2 snapshots must stay readable)", got)
	}
	path := filepath.Join(t.TempDir(), "pr2-era.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadWith(bytes.NewReader(buf.Bytes()), core.NewServer)
	if err != nil {
		t.Fatalf("LoadWith on V1 snapshot: %v", err)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
	_, meta, err := LoadCheckpointFile(path, core.NewServer)
	if err != nil {
		t.Fatalf("LoadCheckpointFile on V1 snapshot: %v", err)
	}
	if meta != (CheckpointMeta{}) {
		t.Fatalf("V1 snapshot reported meta %+v, want all-zero", meta)
	}
}

// A PR-4-era V2 ("MKSESTO2") checkpoint — LSN header, no term fields — must
// keep loading after the V3 format's introduction, reporting term zero.
// Guards the upgrade path of data directories written before failover.
func TestV2CheckpointBackCompat(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	// Hand-build a V2 checkpoint: V2 magic + LSN + the V1 body.
	const lsn = uint64(42)
	buf.WriteString("MKSESTO2")
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], lsn)
	buf.Write(hdr[:])
	var body bytes.Buffer
	if err := Save(&body, srv); err != nil {
		t.Fatal(err)
	}
	buf.Write(body.Bytes()[8:]) // body without the V1 magic
	restored, meta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), core.NewServer)
	if err != nil {
		t.Fatalf("LoadCheckpoint on V2 checkpoint: %v", err)
	}
	if meta.LSN != lsn || meta.Term != 0 || meta.TermStart != 0 {
		t.Fatalf("V2 checkpoint meta %+v, want LSN %d and zero term", meta, lsn)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
}

// The checkpoint format carries a distinct magic and round-trips the
// metadata: LSN, promotion term, and the term's start position.
func TestCheckpointRoundTrip(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	meta := CheckpointMeta{LSN: 0xDEADBEEFCAFE, Term: 7, TermStart: 0xBEE5}
	if err := SaveCheckpoint(&buf, srv, meta); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "MKSESTO3" {
		t.Fatalf("SaveCheckpoint wrote magic %q, want the V3 magic", got)
	}
	restored, gotMeta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), core.NewServer)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
	// The old entry point accepts checkpoints too (the daemon can point
	// -snapshot at a checkpoint file).
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load on V3 checkpoint: %v", err)
	}
	// A truncated metadata header is a bad snapshot, not a crash.
	if _, _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()[:20]), core.NewServer); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated checkpoint header = %v, want ErrBadSnapshot", err)
	}
}

// emptyCheckpoint encodes a V3 checkpoint of parameters p holding no
// documents. writeParams does not validate, so p may be corrupt.
func emptyCheckpoint(t *testing.T, p core.Params) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(magicV3[:])
	buf.Write(make([]byte, 24)) // LSN, term, term start
	if err := writeParams(&buf, p); err != nil {
		t.Fatal(err)
	}
	if err := writeInt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Corrupt size fields must be refused without allocating what they claim: a
// 2^30-bit R in the header (the server's columns are sized from R before any
// document is read) and a 2^30-byte length prefix on a document ID in a file
// a few kilobytes long.
func TestLoadBoundsCorruptSizes(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, srv, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	hugeID := bytes.Clone(buf.Bytes())
	binary.BigEndian.PutUint64(hugeID[32+8*11:], 1<<30) // after magic, meta, 10 parameter ints and the count
	p := core.DefaultParams()
	p.R = 1 << 30
	for name, data := range map[string][]byte{"R": emptyCheckpoint(t, p), "ID length": hugeID} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := LoadCheckpointBytes(data, core.NewServer)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("corrupt %s gave %v, want ErrBadSnapshot", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing a corrupt %s in %d bytes allocated %d bytes", name, len(data), grew)
		}
	}
	// The R bound itself stays loadable.
	p.R = core.MaxR
	loaded, _, err := LoadCheckpointBytes(emptyCheckpoint(t, p), core.NewServer)
	if err != nil {
		t.Fatalf("%d-bit header: %v", core.MaxR, err)
	}
	if loaded.Params().R != core.MaxR {
		t.Fatalf("loaded R = %d, want %d", loaded.Params().R, core.MaxR)
	}
}

// TestWriteFileSyncFailureKeepsPrevious checks the atomic-write contract
// every durable file relies on: a write that fails midway leaves the
// previous file intact and no temp file behind. (That the temp file is
// fsynced before the rename cannot be observed in-process.)
func TestWriteFileSyncFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	write := func(s string) func(w io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteFileSync(path, 0o600, write("previous")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileSync(path, 0o600, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
		t.Errorf("after a failed write the file holds %q (%v), want %q", got, err, "previous")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind (stat err %v)", err)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Error(err)
	} else if fi.Mode().Perm()&0o077 != 0 {
		t.Errorf("mode %v: a 0600 file must not be group/other accessible", fi.Mode())
	}
}
