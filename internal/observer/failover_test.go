package observer

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/faultnet"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/service"
)

// End-to-end failover scenarios: real daemons over real TCP, faults injected
// by killing processes (listener + connections + engine, no checkpoint) or
// by the faultnet proxy (partitions that leave a zombie primary alive).
// Convergence is always judged the strong way — byte-identical search output
// against a sequential re-application of the acknowledged writes.

func tParams() core.Params {
	p := core.DefaultParams()
	p.Levels = rank.Levels{1, 5, 10}
	return p
}

var tZerosPerLevel = []int{30, 18, 8}

// docIndex derives document i's search index deterministically from i alone,
// so the writer, its retries, and the reference re-application all produce
// bit-identical vectors without sharing state.
func docIndex(p core.Params, i int) *core.SearchIndex {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	zeros := rng.Perm(p.R)[:tZerosPerLevel[0]]
	si := &core.SearchIndex{DocID: docID(i), Levels: make([]*bitindex.Vector, p.Eta())}
	for l := range si.Levels {
		v := bitindex.NewOnes(p.R)
		for _, z := range zeros[:tZerosPerLevel[l]] {
			v.SetBit(z, 0)
		}
		si.Levels[l] = v
	}
	return si
}

func docID(i int) string { return fmt.Sprintf("doc-%03d", i) }

// wireUpload pushes document i at addr over one bounded connection — the
// acknowledged-write primitive every scenario builds on.
func wireUpload(p core.Params, addr string, i int) error {
	si := docIndex(p, i)
	conn, err := net.DialTimeout("tcp", addr, 300*time.Millisecond)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	levels := make([][]byte, len(si.Levels))
	for l, v := range si.Levels {
		b, err := v.MarshalBinary()
		if err != nil {
			return err
		}
		levels[l] = b
	}
	_, err = protocol.NewConn(conn).Roundtrip(&protocol.Message{UploadReq: &protocol.UploadRequest{
		DocID: si.DocID, Levels: levels, Ciphertext: []byte("body of " + si.DocID), EncKey: []byte{0xEE},
	}})
	return err
}

// node is one cloud daemon under test, killable like a crashed process.
type node struct {
	eng  *durable.Engine
	svc  *service.CloudService
	l    net.Listener
	addr string

	mu   sync.Mutex
	dead bool
}

func startNode(t *testing.T, p core.Params, dir, primaryAddr string) *node {
	t.Helper()
	eng, err := durable.Open(dir, p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	svc := &service.CloudService{
		Server: eng.Server(), Store: eng, WAL: eng, Eng: eng,
		HeartbeatEvery: 20 * time.Millisecond,
	}
	if primaryAddr != "" {
		svc.Replica = service.StartReplica(eng, primaryAddr, nil)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = svc.Serve(l) }()
	n := &node{eng: eng, svc: svc, l: l, addr: l.Addr().String()}
	t.Cleanup(n.kill)
	return n
}

// kill drops the node like a crashed process: no final checkpoint, no
// goodbye to its peers. Idempotent.
func (n *node) kill() {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return
	}
	n.dead = true
	n.mu.Unlock()
	n.l.Close()
	n.svc.Drain(0)
	if r := n.svc.CurrentReplica(); r != nil {
		r.Close()
	}
	n.eng.Crash()
}

// fingerprint renders the node's results for a query set — IDs, ranks and
// each matched document's stored index at every level — into one string for
// byte-identical comparison.
func fingerprint(t *testing.T, srv *core.Server, qs []*bitindex.Vector) string {
	t.Helper()
	levels := storedLevels(t, srv)
	var b strings.Builder
	for qi, q := range qs {
		ms, err := srv.SearchTop(q, 0)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		fmt.Fprintf(&b, "q%d:", qi)
		for _, m := range ms {
			fmt.Fprintf(&b, " %s/%d/%s", m.DocID, m.Rank, levels[m.DocID])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// storedLevels reads every stored document's index — all levels, marshaled and
// hex-encoded — in one Export pass, keyed by document ID.
func storedLevels(t *testing.T, srv *core.Server) map[string]string {
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

// queriesFor builds queries matching a sample of the first n documents.
func queriesFor(p core.Params, n int) []*bitindex.Vector {
	rng := rand.New(rand.NewSource(7))
	var qs []*bitindex.Vector
	for i := 0; i < n && i < 8; i++ {
		si := docIndex(p, i*n/8)
		q := bitindex.NewOnes(p.R)
		zp := si.Levels[i%p.Eta()].ZeroPositions()
		for _, j := range rng.Perm(len(zp))[:3] {
			q.SetBit(zp[j], 0)
		}
		qs = append(qs, q)
	}
	return qs
}

func waitConverged(t *testing.T, a, b *durable.Engine) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if a.Position() == b.Position() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no convergence: %d vs %d", a.Position(), b.Position())
}

// waitStatus polls the observer until pred holds.
func waitStatus(t *testing.T, o *Observer, what string, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := o.Status(); pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("observer never reached: %s (status %+v)", what, o.Status())
	return Status{}
}

// referenceFingerprint re-applies the acknowledged writes sequentially into
// a fresh engine and fingerprints it — the ground truth every survivor must
// match byte for byte.
func referenceFingerprint(t *testing.T, p core.Params, n int, qs []*bitindex.Vector) string {
	t.Helper()
	ref, err := durable.Open(t.TempDir(), p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Crash()
	for i := 0; i < n; i++ {
		si := docIndex(p, i)
		doc := &core.EncryptedDocument{ID: si.DocID, Ciphertext: []byte("body of " + si.DocID), EncKey: []byte{0xEE}}
		if err := ref.Upload(si, doc); err != nil {
			t.Fatal(err)
		}
	}
	return fingerprint(t, ref.Server(), qs)
}

// TestFailoverKillPrimaryMidWrite is the headline scenario: a sequential
// writer is pushing documents when the primary is killed mid-stream. The
// observer must detect, elect, promote and repoint with zero manual
// intervention; the writer reconciles by re-sending its journal at the new
// primary (uploads are idempotent replacements); and the final search output
// everywhere must be byte-identical to a sequential re-application of every
// acknowledged write.
func TestFailoverKillPrimaryMidWrite(t *testing.T) {
	p := tParams()
	prim := startNode(t, p, t.TempDir(), "")
	f1 := startNode(t, p, t.TempDir(), prim.addr)
	f2 := startNode(t, p, t.TempDir(), prim.addr)
	nodes := map[string]*node{f1.addr: f1, f2.addr: f2}

	obs := New(Config{
		Primary:      prim.addr,
		Followers:    []string{f1.addr, f2.addr},
		ProbeEvery:   15 * time.Millisecond,
		ProbeTimeout: 250 * time.Millisecond,
		FailAfter:    2,
	})
	obs.Start()
	defer obs.Close()

	const total, killAt = 60, 25
	acked := 0
	cur := prim.addr
	deadline := time.Now().Add(60 * time.Second)
	for acked < total {
		if time.Now().After(deadline) {
			t.Fatalf("writer stuck at %d/%d acknowledged writes", acked, total)
		}
		if st := obs.Status(); st.Primary != cur {
			// Failover behind our back: replay the journal so far at the new
			// primary — acknowledged writes that had not replicated when the
			// old primary died are restored, the rest are no-op replacements.
			cur = st.Primary
			for j := 0; j < acked; j++ {
				for wireUpload(p, cur, j) != nil {
					if time.Now().After(deadline) {
						t.Fatalf("journal replay stuck at write %d", j)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			continue
		}
		if err := wireUpload(p, cur, acked); err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		acked++
		if acked == killAt {
			prim.kill()
		}
	}

	st := waitStatus(t, obs, "one failover", func(st Status) bool { return st.Failovers == 1 })
	newPrim, ok := nodes[st.Primary]
	if !ok {
		t.Fatalf("observer promoted %q, not one of the followers", st.Primary)
	}
	var survivor *node
	for addr, n := range nodes {
		if addr != st.Primary {
			survivor = n
		}
	}
	waitStatus(t, obs, "survivor repointed", func(st Status) bool { return len(st.PendingRepoint) == 0 })
	waitConverged(t, newPrim.eng, survivor.eng)

	if term := newPrim.eng.Term(); term != 1 {
		t.Fatalf("new primary at term %d, want 1", term)
	}
	if n := newPrim.eng.Server().NumDocuments(); n != total {
		t.Fatalf("new primary holds %d documents, want %d", n, total)
	}
	qs := queriesFor(p, total)
	want := referenceFingerprint(t, p, total, qs)
	if got := fingerprint(t, newPrim.eng.Server(), qs); got != want {
		t.Error("new primary's search output differs from sequential re-application of the acknowledged writes")
	}
	if got := fingerprint(t, survivor.eng.Server(), qs); got != want {
		t.Error("survivor's search output differs from sequential re-application of the acknowledged writes")
	}
}

// TestFailoverKillDuringPromote drives the nastiest window: the elected
// follower is killed immediately after its promotion succeeds, before any
// survivor is repointed. The observer must fail over again — at a higher
// term — and land the cluster on the remaining node.
func TestFailoverKillDuringPromote(t *testing.T) {
	p := tParams()
	prim := startNode(t, p, t.TempDir(), "")
	const seed = 10
	for i := 0; i < seed; i++ {
		if err := wireUpload(p, prim.addr, i); err != nil {
			t.Fatal(err)
		}
	}
	f1 := startNode(t, p, t.TempDir(), prim.addr)
	f2 := startNode(t, p, t.TempDir(), prim.addr)
	nodes := map[string]*node{f1.addr: f1, f2.addr: f2}
	waitConverged(t, prim.eng, f1.eng)
	waitConverged(t, prim.eng, f2.eng)

	obs := New(Config{
		Primary:      prim.addr,
		Followers:    []string{f1.addr, f2.addr},
		ProbeEvery:   15 * time.Millisecond,
		ProbeTimeout: 250 * time.Millisecond,
		FailAfter:    2,
	})
	// The hook runs on the observer's own goroutine right between the
	// promote and the repoints — kill the freshly promoted node there, once.
	var once sync.Once
	obs.afterPromote = func(addr string) {
		once.Do(func() { nodes[addr].kill() })
	}
	obs.Start()
	defer obs.Close()

	prim.kill()
	st := waitStatus(t, obs, "second failover", func(st Status) bool { return st.Failovers == 2 })
	final, ok := nodes[st.Primary]
	if !ok {
		t.Fatalf("final primary %q is not a known follower", st.Primary)
	}
	final.mu.Lock()
	dead := final.dead
	final.mu.Unlock()
	if dead {
		t.Fatal("observer settled on a dead node")
	}
	if st.Term != 2 || final.eng.Term() != 2 {
		t.Fatalf("terms after double failover: observer %d, node %d, want 2", st.Term, final.eng.Term())
	}
	if err := wireUpload(p, final.addr, seed); err != nil {
		t.Fatalf("write to twice-failed-over primary: %v", err)
	}
	if n := final.eng.Server().NumDocuments(); n != seed+1 {
		t.Fatalf("final primary holds %d documents, want %d", n, seed+1)
	}
}

// TestZombiePrimaryFencedAndRejoins partitions the primary behind a faultnet
// proxy instead of killing it: the observer fails over, the zombie keeps
// accepting a write on its side of the partition, and when the partition
// heals the observer demotes it into a follower — whose diverged tail (the
// zombie write) is wiped by the bootstrap, never forked into the history.
func TestZombiePrimaryFencedAndRejoins(t *testing.T) {
	p := tParams()
	prim := startNode(t, p, t.TempDir(), "")
	proxy, err := faultnet.Listen(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The cluster knows the primary by its proxy address only.
	const seed = 10
	for i := 0; i < seed; i++ {
		if err := wireUpload(p, proxy.Addr(), i); err != nil {
			t.Fatal(err)
		}
	}
	f1 := startNode(t, p, t.TempDir(), proxy.Addr())
	waitConverged(t, prim.eng, f1.eng)

	obs := New(Config{
		Primary:      proxy.Addr(),
		Followers:    []string{f1.addr},
		ProbeEvery:   15 * time.Millisecond,
		ProbeTimeout: 200 * time.Millisecond,
		FailAfter:    2,
	})
	obs.Start()
	defer obs.Close()

	// Partition. The observer fails over to the follower.
	proxy.Sever()
	waitStatus(t, obs, "failover past the partition", func(st Status) bool {
		return st.Failovers == 1 && st.Primary == f1.addr
	})

	// Split brain: the zombie, alive behind the partition, still takes a
	// write on its direct address. The new primary takes real writes.
	if err := wireUpload(p, prim.addr, 900); err != nil {
		t.Fatalf("zombie refused the split-brain write: %v", err)
	}
	for i := seed; i < seed+5; i++ {
		if err := wireUpload(p, f1.addr, i); err != nil {
			t.Fatalf("write to new primary: %v", err)
		}
	}

	// Heal. The observer demotes the zombie into a follower of f1; the
	// divergence rules force it through a bootstrap that discards its tail.
	proxy.Resume()
	waitStatus(t, obs, "zombie demoted", func(st Status) bool {
		return len(st.PendingDemote) == 0 && len(st.Followers) == 1
	})
	waitConverged(t, f1.eng, prim.eng)

	if term := prim.eng.Term(); term != 1 {
		t.Fatalf("rejoined zombie at term %d, want 1", term)
	}
	want := seed + 5
	if n := prim.eng.Server().NumDocuments(); n != want {
		t.Fatalf("rejoined zombie holds %d documents, want %d (its split-brain write must be gone)", n, want)
	}
	qs := queriesFor(p, want)
	ref := referenceFingerprint(t, p, want, qs)
	if got := fingerprint(t, f1.eng.Server(), qs); got != ref {
		t.Error("new primary differs from sequential re-application of the acknowledged writes")
	}
	if got := fingerprint(t, prim.eng.Server(), qs); got != ref {
		t.Error("rejoined zombie differs from the new primary's history")
	}
}

// TestObserverToleratesFlap: a transient stall shorter than FailAfter probes
// must not cost the primary its role.
func TestObserverToleratesFlap(t *testing.T) {
	p := tParams()
	prim := startNode(t, p, t.TempDir(), "")
	proxy, err := faultnet.Listen(prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	obs := New(Config{
		Primary:      proxy.Addr(),
		Followers:    []string{"127.0.0.1:1"}, // never needed
		ProbeTimeout: 100 * time.Millisecond,
		FailAfter:    4,
	})
	obs.Tick()
	if st := obs.Status(); st.ConsecFails != 0 {
		t.Fatalf("healthy probe counted as a failure: %+v", st)
	}

	proxy.Stall()
	obs.Tick()
	obs.Tick()
	if st := obs.Status(); st.ConsecFails != 2 || st.Failovers != 0 {
		t.Fatalf("after 2 stalled probes: %+v, want 2 consecutive failures and no failover", st)
	}

	proxy.Resume()
	obs.Tick()
	st := obs.Status()
	if st.ConsecFails != 0 || st.Failovers != 0 || st.Primary != proxy.Addr() {
		t.Fatalf("flap was not forgiven: %+v", st)
	}
}
