package durable

import (
	"math/rand"
	"strings"
	"testing"

	"mkse/internal/telemetry"
)

// Metrics can be enabled after Open (the engine stores them behind an
// atomic pointer), and from then on every append, fsync and checkpoint
// lands in the histograms while the scrape-time functions read the same
// totals Stats reports.
func TestEngineMetrics(t *testing.T) {
	p := testParams()
	eng, err := Open(t.TempDir(), p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	reg := telemetry.New()
	eng.EnableMetrics(reg)

	rng := rand.New(rand.NewSource(5))
	ops := genOps(rng, p, 8)
	applyOps(t, eng, ops)

	// Counted before the checkpoint, which may append its own records.
	if got := eng.metrics.Load().appendLat.Count(); got != uint64(len(ops)) {
		t.Errorf("append histogram count = %d, want %d", got, len(ops))
	}
	if got := eng.metrics.Load().fsyncLat.Count(); got < uint64(len(ops)) {
		t.Errorf("fsync histogram count = %d with FsyncAlways, want >= %d", got, len(ops))
	}

	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil { // unchanged: a no-op, not a failure
		t.Fatal(err)
	}
	if got := eng.metrics.Load().ckptDur.Count(); got != 1 {
		t.Errorf("checkpoint duration count = %d, want 1", got)
	}
	if got := eng.metrics.Load().ckptPause.Count(); got != 1 {
		t.Errorf("checkpoint pause count = %d, want 1", got)
	}

	rendered := reg.Render()
	for _, want := range []string{
		"mkse_wal_append_seconds_count ",
		"mkse_checkpoints_total 1",
		"mkse_checkpoints_failed_total 0",
		"mkse_checkpoint_lsn ",
		"mkse_checkpoint_age_seconds ",
		"mkse_wal_appended_bytes_total ",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(rendered, "mkse_wal_appended_bytes_total 0\n") {
		t.Error("WAL byte counter still zero after appends")
	}
}
