package durable

import (
	"context"
	"math/rand"
	"testing"

	"mkse/internal/trace"
)

// TestEngineTracing pins the engine's three tracing surfaces: WAL
// append/fsync spans hang under a traced request's context, checkpoints
// record a root + pause trace, and replication applies head-sample
// themselves.
func TestEngineTracing(t *testing.T) {
	p := testParams()
	e, err := Open(t.TempDir(), p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	buf := trace.NewBuffer(64)
	tr := trace.New("cloud", 1, buf)
	e.SetTracer(tr)

	rng := rand.New(rand.NewSource(7))
	up := uploadOp(rng, p, "doc-0001", "body")

	ctx, root := tr.StartRequest(context.Background(), "server:upload", true)
	if err := e.UploadCtx(ctx, up.si, up.doc); err != nil {
		t.Fatal(err)
	}
	root.End()
	rootID := root.Context().Span
	var gotAppend, gotFsync bool
	for _, sp := range root.Spans() {
		switch sp.Name {
		case "wal.append":
			gotAppend = true
		case "wal.fsync":
			gotFsync = true
		default:
			continue
		}
		if sp.Parent != rootID {
			t.Errorf("%s span parented to %x, want the request root %x", sp.Name, sp.Parent, rootID)
		}
	}
	if !gotAppend || !gotFsync {
		t.Fatalf("traced upload missing WAL spans (append=%v fsync=%v): %+v",
			gotAppend, gotFsync, root.Spans())
	}

	// An untraced mutation must not record spans anywhere.
	before := len(buf.Recent(100))
	up2 := uploadOp(rng, p, "doc-0002", "body2")
	if err := e.Upload(up2.si, up2.doc); err != nil {
		t.Fatal(err)
	}
	if got := len(buf.Recent(100)); got != before {
		t.Fatalf("untraced upload grew the trace buffer from %d to %d traces", before, got)
	}

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var ckpt *trace.Trace
	for _, got := range buf.Recent(100) {
		if r := got.Root(); r != nil && r.Name == "durable.checkpoint" {
			g := got
			ckpt = &g
		}
	}
	if ckpt == nil {
		t.Fatal("checkpoint recorded no trace")
	}
	ckptRoot := ckpt.Root()
	var keys []string
	for _, a := range ckptRoot.Attrs {
		keys = append(keys, a.Key)
	}
	if len(keys) != 2 || keys[0] != "lsn" || keys[1] != "documents" {
		t.Errorf("checkpoint root attributes %v, want [lsn documents]", keys)
	}
	if len(ckpt.Spans) != 2 {
		t.Fatalf("checkpoint trace has %d spans, want root + pause: %+v", len(ckpt.Spans), ckpt.Spans)
	}
	for _, sp := range ckpt.Spans {
		if sp.ID != ckptRoot.ID && (sp.Name != "checkpoint.pause" || sp.Parent != ckptRoot.ID) {
			t.Fatalf("checkpoint trace holds %q under %x, want checkpoint.pause under the root", sp.Name, sp.Parent)
		}
	}
}

func TestApplyReplicatedTraceSampling(t *testing.T) {
	p := testParams()
	primary, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := Open(t.TempDir(), p, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	buf := trace.NewBuffer(64)
	follower.SetTracer(trace.New("cloud-follower", 1, buf)) // sample every apply

	rng := rand.New(rand.NewSource(9))
	applyOps(t, primary, genOps(rng, p, 5))
	records, _, err := primary.ReadWAL(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := follower.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
	}
	traces := buf.Recent(100)
	if len(traces) != len(records) {
		t.Fatalf("sampled %d apply traces for %d records", len(traces), len(records))
	}
	for _, tr := range traces {
		if len(tr.Spans) != 1 {
			t.Fatalf("apply trace has %d spans, want one: %+v", len(tr.Spans), tr.Spans)
		}
		sp := tr.Spans[0]
		if sp.Name != "replication.apply" || sp.Parent != 0 {
			t.Fatalf("apply trace mis-rooted: %+v", sp)
		}
		if len(sp.Attrs) != 2 || sp.Attrs[0].Key != "kind" || sp.Attrs[1].Key != "position" {
			t.Errorf("apply span attributes %+v, want kind and position", sp.Attrs)
		}
	}
}
