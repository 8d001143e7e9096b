package durable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// replicate pulls every record past the follower's position from src and
// applies it to dst, the in-process equivalent of one replication batch
// exchange.
func replicate(t *testing.T, src, dst *Engine) {
	t.Helper()
	for {
		recs, next, err := src.ReadWAL(dst.Position(), 1<<20)
		if err != nil {
			t.Fatalf("ReadWAL from %d: %v", dst.Position(), err)
		}
		if len(recs) == 0 {
			return
		}
		for _, rec := range recs {
			if err := dst.ApplyReplicated(rec); err != nil {
				t.Fatalf("ApplyReplicated: %v", err)
			}
		}
		if dst.Position() != next {
			t.Fatalf("follower at %d after applying a batch ending at %d", dst.Position(), next)
		}
	}
}

func TestReadWALFromEveryPosition(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(71))
	ops := genOps(rng, p, 40)

	dir := t.TempDir()
	eng, err := Open(dir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()

	// Rotate mid-stream so reads must cross a segment boundary.
	applyOps(t, eng, ops[:25])
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, eng, ops[25:])

	end := eng.Position()
	if end != uint64(len(ops)) {
		t.Fatalf("position %d after %d ops", end, len(ops))
	}
	oldest := eng.OldestRetained()
	for from := oldest; from <= end; from++ {
		recs, next, err := eng.ReadWAL(from, 1<<30)
		if err != nil {
			t.Fatalf("ReadWAL(%d): %v", from, err)
		}
		if want := end - from; uint64(len(recs)) != want {
			t.Fatalf("ReadWAL(%d): %d records, want %d", from, len(recs), want)
		}
		if next != end {
			t.Fatalf("ReadWAL(%d): next %d, want %d", from, next, end)
		}
	}

	// Small maxBytes still returns at least one record and a correct next.
	if oldest < end {
		recs, next, err := eng.ReadWAL(oldest, 1)
		if err != nil || len(recs) == 0 || next != oldest+uint64(len(recs)) {
			t.Fatalf("tiny batch: %d recs, next %d, err %v", len(recs), next, err)
		}
	}
}

func TestReadWALTruncatedHistory(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(72))
	ops := genOps(rng, p, 30)

	eng, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()
	applyOps(t, eng, ops[:20])
	if err := eng.Checkpoint(); err != nil { // prunes segments below 20
		t.Fatal(err)
	}
	applyOps(t, eng, ops[20:])

	if got := eng.OldestRetained(); got != 20 {
		t.Fatalf("oldest retained %d, want 20", got)
	}
	if _, _, err := eng.ReadWAL(5, 1<<20); !errors.Is(err, ErrTruncatedHistory) {
		t.Fatalf("ReadWAL below retained history: %v, want ErrTruncatedHistory", err)
	}
}

// A primary's replication stream lists the data directory (ReadWAL,
// OldestRetained) while its checkpoints write theirs under a temp name:
// listing must never remove a checkpoint being written.
func TestCheckpointsSurviveConcurrentLogReaders(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(75))
	eng, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A cleanup between the two calls may truncate the history
			// just listed; the reader only has to keep listing.
			eng.ReadWAL(eng.OldestRetained(), 1<<20)
		}
	}()
	const rounds = 50
	for round := 0; round < rounds; round++ {
		for i := 0; i < 5; i++ {
			id := fmt.Sprintf("doc-%03d-%d", round, i)
			applyOps(t, eng, []op{uploadOp(rng, p, id, id)})
		}
		if err := eng.Checkpoint(); err != nil {
			t.Errorf("round %d: checkpoint: %v", round, err)
		}
	}
	close(stop)
	<-done
	if st := eng.Stats(); st.Checkpoints != rounds || st.CheckpointsFailed != 0 {
		t.Errorf("%d checkpoints taken and %d failed, want %d and 0", st.Checkpoints, st.CheckpointsFailed, rounds)
	}
	if got := eng.OldestRetained(); got != 5*rounds {
		t.Errorf("oldest retained %d, want %d: the last checkpoint cut the log", got, 5*rounds)
	}
}

func TestApplyReplicatedConvergesAndSurvivesCrash(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(73))
	ops := genOps(rng, p, 60)
	qs := queriesFor(rand.New(rand.NewSource(74)), p, ops)

	primary, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Crash()

	fdir := t.TempDir()
	follower, err := Open(fdir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}

	// First half, replicated, then a crash at an arbitrary point.
	applyOps(t, primary, ops[:30])
	replicate(t, primary, follower)
	if err := follower.Sync(); err != nil {
		t.Fatal(err)
	}
	follower.Crash()

	// The reopened follower resumes from its recovered position.
	follower, err = Open(fdir, p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopening crashed follower: %v", err)
	}
	defer follower.Crash()
	if got := follower.Position(); got != 30 {
		t.Fatalf("recovered follower at position %d, want 30", got)
	}

	applyOps(t, primary, ops[30:])
	replicate(t, primary, follower)

	if p1, p2 := primary.Position(), follower.Position(); p1 != p2 {
		t.Fatalf("positions diverge: primary %d, follower %d", p1, p2)
	}
	want := searchFingerprint(t, primary.Server(), qs)
	got := searchFingerprint(t, follower.Server(), qs)
	if want != got {
		t.Error("follower search output differs from primary after replication")
	}
}

func TestResetToCheckpointBootstrapsAndRecovers(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(75))
	ops := genOps(rng, p, 50)
	qs := queriesFor(rand.New(rand.NewSource(76)), p, ops)

	primary, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Crash()
	applyOps(t, primary, ops[:40])
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, primary, ops[40:])

	data, lsn, err := primary.ReadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 40 {
		t.Fatalf("checkpoint at %d, want 40", lsn)
	}
	want := searchFingerprint(t, primary.Server(), qs)

	// The reset must replace whatever history the follower holds, whether it
	// ends before the shipped position or runs past it.
	histories := []struct {
		name    string
		history func(t *testing.T, follower *Engine)
	}{
		{"unrelated shorter history", func(t *testing.T, follower *Engine) {
			applyOps(t, follower, genOps(rand.New(rand.NewSource(99)), p, 5))
		}},
		// A deposed primary shares the first 40 records, checkpointed, then
		// diverges: its live segment starts at the shipped position and
		// holds records the new history does not have.
		{"deposed primary", func(t *testing.T, follower *Engine) {
			applyOps(t, follower, ops[:40])
			if err := follower.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			applyOps(t, follower, genOps(rand.New(rand.NewSource(98)), p, 5))
		}},
	}
	for _, h := range histories {
		t.Run(h.name, func(t *testing.T) {
			fdir := t.TempDir()
			follower, err := Open(fdir, p, Options{Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			h.history(t, follower)
			if err := follower.ResetToCheckpoint(data, lsn); err != nil {
				t.Fatalf("ResetToCheckpoint: %v", err)
			}
			if got := follower.Position(); got != lsn {
				t.Fatalf("position %d after bootstrap, want %d", got, lsn)
			}
			replicate(t, primary, follower)
			if got := searchFingerprint(t, follower.Server(), qs); got != want {
				t.Error("bootstrapped follower differs from primary")
			}

			// The bootstrapped directory is self-sufficient: reopen and
			// re-verify.
			if err := follower.Sync(); err != nil {
				t.Fatal(err)
			}
			follower.Crash()
			follower, err = Open(fdir, p, Options{})
			if err != nil {
				t.Fatalf("reopening bootstrapped follower: %v", err)
			}
			defer follower.Crash()
			if got, want := follower.Position(), primary.Position(); got != want {
				t.Errorf("reopened follower at position %d, primary at %d", got, want)
			}
			if got, want := follower.Server().NumDocuments(), primary.Server().NumDocuments(); got != want {
				t.Errorf("reopened follower holds %d documents, primary %d", got, want)
			}
			if got := searchFingerprint(t, follower.Server(), qs); got != want {
				t.Error("reopened bootstrapped follower differs from primary")
			}
		})
	}
}

func TestResetToCheckpointRejectsGarbage(t *testing.T) {
	p := testParams()
	eng, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()
	rng := rand.New(rand.NewSource(77))
	ops := genOps(rng, p, 8)
	applyOps(t, eng, ops)
	qs := queriesFor(rand.New(rand.NewSource(78)), p, ops)
	want := searchFingerprint(t, eng.Server(), qs)

	if err := eng.ResetToCheckpoint([]byte("not a checkpoint"), 10); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if got := eng.Position(); got != 8 {
		t.Fatalf("position moved to %d after rejected bootstrap", got)
	}
	if got := searchFingerprint(t, eng.Server(), qs); got != want {
		t.Error("state changed after rejected bootstrap")
	}
}

func TestWaitWAL(t *testing.T) {
	p := testParams()
	eng, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()

	if eng.WaitWAL(0, 20*time.Millisecond) {
		t.Fatal("WaitWAL returned true with an empty log")
	}

	done := make(chan bool, 1)
	go func() { done <- eng.WaitWAL(0, 5*time.Second) }()
	rng := rand.New(rand.NewSource(79))
	applyOps(t, eng, genOps(rng, p, 1))
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitWAL returned false after an append")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitWAL did not wake on append")
	}
}
