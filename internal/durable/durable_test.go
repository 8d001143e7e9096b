package durable

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/rank"
)

// The engine tests exercise durability, not cryptography: indices are
// random valid vectors (mostly-ones with nested zero sets per level), and
// queries borrow zero positions from a target document so they match it.
// What matters is that a recovered server's search output is byte-identical
// to one that applied the same operations directly.

func testParams() core.Params {
	p := core.DefaultParams()
	p.Levels = rank.Levels{1, 5, 10}
	return p
}

// zerosPerLevel makes level l+1's zero set a strict subset of level l's, as
// real indices have (higher levels cover fewer keywords).
var zerosPerLevel = []int{30, 18, 8}

func randomIndex(rng *rand.Rand, p core.Params, id string) *core.SearchIndex {
	zeros := rng.Perm(p.R)[:zerosPerLevel[0]]
	si := &core.SearchIndex{DocID: id, Levels: make([]*bitindex.Vector, p.Eta())}
	for l := range si.Levels {
		v := bitindex.NewOnes(p.R)
		for _, z := range zeros[:zerosPerLevel[l]] {
			v.SetBit(z, 0)
		}
		si.Levels[l] = v
	}
	return si
}

// queryFor builds a query matching si at least to the given level: its few
// zero bits are drawn from si's level-(lvl+1) zeros.
func queryFor(rng *rand.Rand, p core.Params, si *core.SearchIndex, lvl int) *bitindex.Vector {
	q := bitindex.NewOnes(p.R)
	zp := si.Levels[lvl].ZeroPositions()
	for _, i := range rng.Perm(len(zp))[:3] {
		q.SetBit(zp[i], 0)
	}
	return q
}

// op is one scripted mutation, applied identically to engines and reference
// servers.
type op struct {
	del bool
	id  string
	si  *core.SearchIndex
	doc *core.EncryptedDocument
}

type mutator interface {
	Upload(*core.SearchIndex, *core.EncryptedDocument) error
	Delete(string) error
}

func applyOps(t testing.TB, m mutator, ops []op) {
	t.Helper()
	for i, o := range ops {
		var err error
		if o.del {
			err = m.Delete(o.id)
		} else {
			err = m.Upload(o.si, o.doc)
		}
		if err != nil {
			t.Fatalf("op %d (%+v): %v", i, o.del, err)
		}
	}
}

// genOps scripts n mutations: uploads, re-uploads of live IDs with fresh
// indices, and deletes. The final op is always an upload, so crash tests
// cutting the last record have a meaty record to cut.
func genOps(rng *rand.Rand, p core.Params, n int) []op {
	var ops []op
	var live []string
	next := 0
	for len(ops) < n {
		switch r := rng.Float64(); {
		case r < 0.2 && len(live) > 3 && len(ops) < n-1:
			i := rng.Intn(len(live))
			ops = append(ops, op{del: true, id: live[i]})
			live = append(live[:i], live[i+1:]...)
		case r < 0.35 && len(live) > 0 && len(ops) < n-1:
			id := live[rng.Intn(len(live))] // re-upload with a fresh index
			ops = append(ops, uploadOp(rng, p, id, fmt.Sprintf("v2 of %s", id)))
		default:
			id := fmt.Sprintf("doc-%04d", next)
			next++
			live = append(live, id)
			ops = append(ops, uploadOp(rng, p, id, fmt.Sprintf("body of %s", id)))
		}
	}
	return ops
}

func uploadOp(rng *rand.Rand, p core.Params, id, body string) op {
	si := randomIndex(rng, p, id)
	return op{id: id, si: si, doc: &core.EncryptedDocument{ID: id, Ciphertext: []byte(body), EncKey: []byte{0xEE}}}
}

// liveAfter returns the IDs a prefix of ops leaves stored.
func liveAfter(ops []op) map[string]bool {
	live := make(map[string]bool)
	for _, o := range ops {
		if o.del {
			delete(live, o.id)
		} else {
			live[o.id] = true
		}
	}
	return live
}

// queriesFor derives a deterministic query set from the scripted uploads.
func queriesFor(rng *rand.Rand, p core.Params, ops []op) []*bitindex.Vector {
	var qs []*bitindex.Vector
	for _, o := range ops {
		if o.del {
			continue
		}
		qs = append(qs, queryFor(rng, p, o.si, len(qs)%p.Eta()))
		if len(qs) == 8 {
			break
		}
	}
	return qs
}

// searchFingerprint renders every query's full and top-5 results — IDs,
// ranks and each matched document's stored index at every level — into one
// string, the byte-identical-output check of the recovery tests.
func searchFingerprint(t testing.TB, srv *core.Server, qs []*bitindex.Vector) string {
	t.Helper()
	levels := storedLevels(t, srv)
	var b strings.Builder
	for qi, q := range qs {
		for _, tau := range []int{0, 5} {
			ms, err := srv.SearchTop(q, tau)
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			fmt.Fprintf(&b, "q%d tau%d:", qi, tau)
			for _, m := range ms {
				fmt.Fprintf(&b, " %s/%d/%s", m.DocID, m.Rank, levels[m.DocID])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// storedLevels reads every stored document's index — all levels, marshaled and
// hex-encoded — in one Export pass, keyed by document ID.
func storedLevels(t testing.TB, srv *core.Server) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := srv.Export(func(si *core.SearchIndex, _ *core.EncryptedDocument) error {
		var b strings.Builder
		for _, l := range si.Levels {
			raw, err := l.MarshalBinary()
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%x;", raw)
		}
		out[si.DocID] = b.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceServer applies ops to a fresh server in a deliberately different
// shard layout than the engine default, so equality also covers layout
// independence.
func referenceServer(t testing.TB, p core.Params, ops []op) *core.Server {
	t.Helper()
	srv, err := core.NewServerSharded(p, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, srv, ops)
	return srv
}

func TestEngineRecoversAfterCrash(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(11))
	ops := genOps(rng, p, 60)
	qs := queriesFor(rand.New(rand.NewSource(12)), p, ops)
	dir := t.TempDir()

	e, err := Open(dir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, e, ops)
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatalf("recovering: %v", err)
	}
	defer re.Close()
	if got := re.Stats().ReplayedOps; got != len(ops) {
		t.Fatalf("replayed %d ops, want %d", got, len(ops))
	}
	want := searchFingerprint(t, referenceServer(t, p, ops), qs)
	if got := searchFingerprint(t, re.Server(), qs); got != want {
		t.Fatalf("recovered search output differs:\n got: %s\nwant: %s", got, want)
	}
	live := liveAfter(ops)
	if re.Server().NumDocuments() != len(live) {
		t.Fatalf("recovered %d documents, want %d", re.Server().NumDocuments(), len(live))
	}
	for _, o := range ops {
		if _, err := re.Server().Fetch(o.id); live[o.id] != (err == nil) {
			t.Fatalf("Fetch(%s) after recovery: live=%v err=%v", o.id, live[o.id], err)
		}
	}
}

func TestCheckpointCutsLogAndPrunes(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(21))
	ops := genOps(rng, p, 40)
	qs := queriesFor(rand.New(rand.NewSource(22)), p, ops)
	dir := t.TempDir()

	e, err := Open(dir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, e, ops[:25])
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CheckpointLSN != 25 || st.Checkpoints != 1 {
		t.Fatalf("after checkpoint: %+v", st)
	}
	if st.LastCheckpointPause <= 0 || st.LastCheckpointWrite <= 0 {
		t.Fatalf("checkpoint timings not recorded: %+v", st)
	}
	ckpts, segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0] != 25 || len(segs) != 1 || segs[0] != 25 {
		t.Fatalf("dir after checkpoint: ckpts=%v segs=%v, want one of each at 25", ckpts, segs)
	}
	// Checkpointing an unchanged engine is a no-op.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Checkpoints; got != 1 {
		t.Fatalf("no-op checkpoint ran anyway: %d", got)
	}

	applyOps(t, e, ops[25:])
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().ReplayedOps; got != len(ops)-25 {
		t.Fatalf("replayed %d ops, want only the %d past the checkpoint", got, len(ops)-25)
	}
	want := searchFingerprint(t, referenceServer(t, p, ops), qs)
	if got := searchFingerprint(t, re.Server(), qs); got != want {
		t.Fatal("recovered search output differs after checkpoint + replay")
	}
}

func TestCloseCheckpointsAndReopensReplayFree(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(31))
	ops := genOps(rng, p, 30)
	qs := queriesFor(rand.New(rand.NewSource(32)), p, ops)
	dir := t.TempDir()

	e, err := Open(dir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, e, ops)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Upload(ops[0].si, ops[0].doc); !errors.Is(err, ErrClosed) {
		t.Fatalf("Upload after Close = %v, want ErrClosed", err)
	}
	if err := e.Delete(ops[0].id); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().ReplayedOps; got != 0 {
		t.Fatalf("clean shutdown still replayed %d ops", got)
	}
	want := searchFingerprint(t, referenceServer(t, p, ops), qs)
	if got := searchFingerprint(t, re.Server(), qs); got != want {
		t.Fatal("search output differs after clean shutdown")
	}
}

// A failed fsync leaves the record in none of memory, Position and what
// ReadWAL serves, and every later mutation is refused. Syncing a pipe fails
// (EINVAL), so a pipe swapped in for the live segment fails each FsyncAlways
// append at its fsync, after the write went through.
func TestFailedFsyncRefusesLaterMutations(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(33))
	e, err := Open(t.TempDir(), p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	first := uploadOp(rng, p, "doc-a", "a")
	applyOps(t, e, []op{first})

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e.mu.Lock()
	seg := e.f
	e.f = w
	e.mu.Unlock()
	defer seg.Close()
	defer e.Crash() // closes w

	second := uploadOp(rng, p, "doc-b", "b")
	if err := e.Upload(second.si, second.doc); err == nil {
		t.Fatal("Upload succeeded although its fsync failed")
	}
	if got := e.Position(); got != 1 {
		t.Errorf("Position = %d after the failed upload, want 1", got)
	}
	if got := e.Server().NumDocuments(); got != 1 {
		t.Errorf("%d documents after the failed upload, want 1", got)
	}
	if recs, next, err := e.ReadWAL(0, 1<<20); err != nil || len(recs) != 1 || next != 1 {
		t.Errorf("ReadWAL(0) = %d records, next %d, err %v; want the one committed record", len(recs), next, err)
	}

	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unknown state") {
			t.Errorf("%s after a failed fsync = %v, want the unknown-state refusal", what, err)
		}
	}
	refused("SetTerm", e.SetTerm(5))
	refused("Upload", e.Upload(second.si, second.doc))
	refused("Delete", e.Delete(first.id))
	refused("Checkpoint", e.Checkpoint())
	if got := e.Stats().CheckpointsFailed; got != 1 {
		t.Errorf("CheckpointsFailed = %d after the refused checkpoint, want 1", got)
	}
	if got := e.Term(); got != 0 {
		t.Errorf("Term = %d after the refused SetTerm, want 0", got)
	}
	if got := e.Position(); got != 1 {
		t.Errorf("Position = %d after the refused mutations, want 1", got)
	}
}

func TestAutomaticCheckpoints(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(41))
	dir := t.TempDir()
	e, err := Open(dir, p, Options{Fsync: FsyncNever, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	applyOps(t, e, genOps(rng, p, 40))
	// The trigger is asynchronous; give the background checkpointer a
	// moment before declaring it broken.
	for i := 0; i < 200 && e.Stats().Checkpoints == 0; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	st := e.Stats()
	if st.Checkpoints == 0 || st.CheckpointLSN == 0 {
		t.Fatalf("no automatic checkpoint after 40 ops with CheckpointEvery=8: %+v", st)
	}
}

func TestOpenCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "there", "yet")
	e, err := Open(dir, testParams(), Options{})
	if err != nil {
		t.Fatalf("Open on a missing directory: %v", err)
	}
	defer e.Close()
	if n := e.Server().NumDocuments(); n != 0 {
		t.Fatalf("fresh engine holds %d documents", n)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("data dir not created: %v", err)
	}
}

func TestTornFinalRecordTolerated(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(51))
	ops := genOps(rng, p, 20)
	qs := queriesFor(rand.New(rand.NewSource(52)), p, ops)
	dir := t.TempDir()

	e, err := Open(dir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, e, ops)
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	// A crash mid-append leaves a partial frame at the tail.
	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xAA}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	if got := re.Stats().ReplayedOps; got != len(ops) {
		t.Fatalf("replayed %d ops, want %d", got, len(ops))
	}
	want := searchFingerprint(t, referenceServer(t, p, ops), qs)
	if got := searchFingerprint(t, re.Server(), qs); got != want {
		t.Fatal("recovered search output differs with torn tail")
	}
	// The tail was truncated away: the engine can append and recover again.
	extra := uploadOp(rng, p, "post-crash", "appended after recovery")
	if err := re.Upload(extra.si, extra.doc); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	re.Crash()
	re2, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Stats().ReplayedOps; got != len(ops)+1 {
		t.Fatalf("second recovery replayed %d ops, want %d", got, len(ops)+1)
	}
	if _, err := re2.Server().Fetch("post-crash"); err != nil {
		t.Fatalf("post-recovery upload lost: %v", err)
	}
}

// Corruption in a segment that is NOT the last one cannot be a torn write;
// skipping it would silently drop acknowledged mutations, so Open must fail.
func TestMidLogCorruptionFailsRecovery(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(61))
	ops := genOps(rng, p, 10)
	dir := t.TempDir()

	e, err := Open(dir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, e, ops)
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	// Simulate a crash after segment rotation but before the checkpoint
	// write: a later, empty segment exists.
	if err := os.WriteFile(filepath.Join(dir, segName(10)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Sanity: that layout alone recovers fine.
	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatalf("rotated-but-uncheckpointed layout should recover: %v", err)
	}
	if got := re.Stats().ReplayedOps; got != len(ops) {
		t.Fatalf("replayed %d, want %d", got, len(ops))
	}
	re.Crash()

	// Now flip one payload byte in the middle of the first segment.
	seg := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, p, Options{}); err == nil {
		t.Fatal("recovery over mid-log corruption with later segments succeeded; acknowledged ops were silently dropped")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncPolicy(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", c.in, got, err)
		}
		if c.ok && got.String() != c.in {
			t.Errorf("String() round trip of %q = %q", c.in, got.String())
		}
	}
}
