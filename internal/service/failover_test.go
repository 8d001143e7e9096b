package service

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/faultnet"
	"mkse/internal/protocol"
	"mkse/internal/rank"
)

// Failover-surface tests: the promote and reconfigure verbs, term-typed
// rejections, fencing of deposed primaries, client topology-following, and
// the graceful-shutdown plumbing (drain, idle timeouts). The end-to-end
// kill-the-primary scenarios live in internal/observer, driven by the
// fault-injecting proxy.

// wireUpload pushes one document at a follower/primary over a raw protocol
// connection, returning the roundtrip error.
func wireUpload(t *testing.T, addr string, si *core.SearchIndex, id string) error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	levels := make([][]byte, len(si.Levels))
	for i, l := range si.Levels {
		levels[i] = marshalVector(l)
	}
	_, err = protocol.NewConn(conn).Roundtrip(&protocol.Message{UploadReq: &protocol.UploadRequest{
		DocID: id, Levels: levels, Ciphertext: []byte("body of " + id), EncKey: []byte{0xEE},
	}})
	return err
}

func TestPromoteFlipsFollowerInPlace(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(101))
	pr := startReplPrimary(t, p, t.TempDir())
	for i := 0; i < 12; i++ {
		replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i))
	}
	fo := startReplFollower(t, p, t.TempDir(), pr.addr)
	waitConverged(t, pr.eng, fo.eng)

	// Before: a read-only replica at term 0, visible in stats.
	st, err := FetchStats(fo.addr)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Replica || st.Term != 0 {
		t.Fatalf("pre-promote stats: replica=%v term=%d, want replica at term 0", st.Replica, st.Term)
	}
	if err := wireUpload(t, fo.addr, replIndex(rng, p, "doc-pre"), "doc-pre"); err == nil {
		t.Fatal("follower accepted an upload before promotion")
	} else {
		var remote *protocol.RemoteError
		if !errors.As(err, &remote) || remote.Code != protocol.CodeReadOnly {
			t.Fatalf("follower rejection not typed read-only: %v (code %q)", err, remote.Code)
		}
	}

	// Promote in place.
	resp, err := Promote(fo.addr, 1)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if resp.Term != 1 {
		t.Fatalf("promoted to term %d, want 1", resp.Term)
	}
	if resp.Position != fo.eng.TermStart() {
		t.Fatalf("promote reported term start %d, engine says %d", resp.Position, fo.eng.TermStart())
	}

	// After: a primary at term 1 that accepts writes; stats flip too.
	st, err = FetchStats(fo.addr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replica || st.Term != 1 {
		t.Fatalf("post-promote stats: replica=%v term=%d, want primary at term 1", st.Replica, st.Term)
	}
	if err := wireUpload(t, fo.addr, replIndex(rng, p, "doc-new"), "doc-new"); err != nil {
		t.Fatalf("promoted follower rejected a write: %v", err)
	}
	if got := fo.eng.Server().NumDocuments(); got != 13 {
		t.Fatalf("promoted follower has %d documents, want 13", got)
	}

	// Re-promoting to the same term is idempotent (observer retry).
	if _, err := Promote(fo.addr, 1); err != nil {
		t.Fatalf("idempotent re-promote: %v", err)
	}

	// An old-term promote is refused with a typed stale-term error.
	_, err = Promote(fo.addr, 0)
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) || remote.Code != protocol.CodeStaleTerm {
		t.Fatalf("stale promote: %v (code %q), want %s", err, remote.Code, protocol.CodeStaleTerm)
	}
}

func TestStaleSubscriberFencesDeposedPrimary(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(102))
	pr := startReplPrimary(t, p, t.TempDir())
	for i := 0; i < 5; i++ {
		replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i))
	}

	// A follower that has seen term 5 subscribes: this primary (term 0)
	// learns it was failed over and must fence itself.
	conn, err := net.Dial("tcp", pr.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	if err := pc.Send(&protocol.Message{ReplicaSubscribeReq: &protocol.ReplicaSubscribeRequest{
		From: pr.eng.Position(), Term: 5,
	}}); err != nil {
		t.Fatal(err)
	}
	m, err := pc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Error == nil || m.Error.Code != protocol.CodeStaleTerm {
		t.Fatalf("subscribe reply: %+v, want a %s error", m, protocol.CodeStaleTerm)
	}

	// The fence is durable for the process: writes bounce as read-only.
	err = wireUpload(t, pr.addr, replIndex(rng, p, "doc-zombie"), "doc-zombie")
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) || remote.Code != protocol.CodeReadOnly {
		t.Fatalf("fenced primary write: %v (code %q), want %s", err, remote.Code, protocol.CodeReadOnly)
	}

	// A promote at a current term puts it back into a defined role.
	if _, err := Promote(pr.addr, 6); err != nil {
		t.Fatalf("re-promote of fenced primary: %v", err)
	}
	if err := wireUpload(t, pr.addr, replIndex(rng, p, "doc-back"), "doc-back"); err != nil {
		t.Fatalf("write after re-promotion: %v", err)
	}
}

// startFollowedPrimary is the topology of the promotion-following tests: a
// durable primary holding a small owner-indexed corpus, one converged
// follower, and an owner daemon to enroll with.
func startFollowedPrimary(t *testing.T, seed int64) (pr *replPrimary, fo *replFollower, ownerAddr string, docs []*corpus.Document, items []UploadItem) {
	t.Helper()
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	pr = startReplPrimary(t, p, t.TempDir())
	docs, items, err = corpusDocsFor(owner, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := UploadAll(pr.addr, items); err != nil {
		t.Fatal(err)
	}
	fo = startReplFollower(t, p, t.TempDir(), pr.addr)
	waitConverged(t, pr.eng, fo.eng)
	return pr, fo, serveLoopback(t, (&OwnerService{Owner: owner}).Serve), docs, items
}

func TestClientFollowsPromotion(t *testing.T) {
	pr, fo, ownerAddr, docs, items := startFollowedPrimary(t, 48)

	client, err := Dial("failover-user", ownerAddr, pr.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.AddReadReplicas(fo.addr)

	// Kill the primary, promote the follower — the client was not told.
	pr.kill()
	if _, err := Promote(fo.addr, 1); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// A write on the dead connection must fail over to the new primary.
	victim := items[0].Doc.ID
	if err := client.Delete(victim); err != nil {
		t.Fatalf("delete across failover: %v", err)
	}
	if got := fo.eng.Server().NumDocuments(); got != 11 {
		t.Fatalf("new primary has %d documents after delete, want 11", got)
	}

	// Reads keep working against the new topology.
	if _, err := client.Search(docs[3].Keywords()[:2], 0); err != nil {
		t.Fatalf("search across failover: %v", err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatalf("stats across failover: %v", err)
	}
	if st.Term != 1 {
		t.Fatalf("client sees term %d after failover, want 1", st.Term)
	}
}

// A replica that accepts connections and never answers must cost the
// follow-promotion probe its timeout, not wedge the client — the probe runs
// under the client mutex. The write fails within the budget, and once the
// stall lifts and the follower is promoted the same client writes through it.
func TestFollowPromotionBoundedByStalledReplica(t *testing.T) {
	pr, fo, ownerAddr, _, items := startFollowedPrimary(t, 49)
	proxy, err := faultnet.Listen(fo.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := Dial("stalled-follow-user", ownerAddr, pr.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.PartitionTimeout = 200 * time.Millisecond
	if err := client.AddReadReplicas(proxy.Addr()); err != nil {
		t.Fatal(err)
	}

	pr.kill()
	proxy.Stall()
	victim := items[0].Doc.ID
	done := make(chan error, 1)
	go func() { done <- client.Delete(victim) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("delete succeeded with the primary dead and the only replica stalled")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("delete still blocked after 10s: the stalled replica wedged the client")
	}

	proxy.Resume()
	if _, err := Promote(fo.addr, 1); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := client.Delete(victim); err != nil {
		t.Fatalf("delete after the stall lifted and the follower was promoted: %v", err)
	}
	if got := fo.eng.Server().NumDocuments(); got != len(items)-1 {
		t.Fatalf("new primary has %d documents after delete, want %d", got, len(items)-1)
	}
}

func TestDrainClosesLingeringConnections(t *testing.T) {
	p := replParams()
	eng, err := durable.Open(t.TempDir(), p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()
	svc := &CloudService{Server: eng.Server(), Store: eng, WAL: eng, Eng: eng}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = svc.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	if _, err := pc.Roundtrip(&protocol.Message{StatsReq: &protocol.StatsRequest{}}); err != nil {
		t.Fatal(err)
	}

	// Stop accepting, then drain: the idle keep-alive connection cannot
	// finish on its own, so the window elapses and it is cut.
	l.Close()
	start := time.Now()
	svc.Drain(50 * time.Millisecond)
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("drain returned after %v, before the window closed", waited)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := pc.Recv(); err == nil {
		t.Fatal("connection survived the drain")
	}
	// With nothing tracked anymore, a second drain returns immediately.
	start = time.Now()
	svc.Drain(time.Second)
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("empty drain blocked for %v", waited)
	}
}

func TestIdleTimeoutDropsQuietConnsButSparesStreams(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(103))
	eng, err := durable.Open(t.TempDir(), p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()
	svc := &CloudService{
		Server: eng.Server(), Store: eng, WAL: eng, Eng: eng,
		IdleTimeout: 75 * time.Millisecond, HeartbeatEvery: 25 * time.Millisecond,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = svc.Serve(l) }()
	addr := l.Addr().String()

	// An active client is fine; one that goes quiet past the window is cut.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	if _, err := pc.Roundtrip(&protocol.Message{StatsReq: &protocol.StatsRequest{}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := pc.Roundtrip(&protocol.Message{StatsReq: &protocol.StatsRequest{}}); err == nil {
		t.Fatal("idle connection survived four idle windows")
	}

	// A replication stream takes its connection over and clears the
	// deadline: a follower must stay converged across many idle windows.
	for i := 0; i < 5; i++ {
		replUpload(t, eng, rng, p, fmt.Sprintf("doc-%03d", i))
	}
	fo := startReplFollower(t, p, t.TempDir(), addr)
	waitConverged(t, eng, fo.eng)
	time.Sleep(300 * time.Millisecond)
	replUpload(t, eng, rng, p, "doc-late")
	waitConverged(t, eng, fo.eng)
	if !fo.rep.Status().Connected {
		t.Fatal("replication stream did not survive the idle timeout")
	}
}

// A primary cut off from everyone but still alive is never fenced if no
// peer reaches it with the newer term. When it reappears after its
// successor died, the client must not adopt it: a surviving replica
// reports the newer term, so the zombie's term-0 primacy is stale, and the
// write must fail rather than fork the partition's history.
func TestFollowPrimaryRefusesLowerTermZombie(t *testing.T) {
	pr, f1, ownerAddr, _, items := startFollowedPrimary(t, 50)
	f2 := startReplFollower(t, pr.eng.Server().Params(), t.TempDir(), pr.addr)
	waitConverged(t, pr.eng, f2.eng)
	proxy, err := faultnet.Listen(pr.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := Dial("zombie-user", ownerAddr, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.AddReadReplicas(f1.addr, f2.addr); err != nil {
		t.Fatal(err)
	}

	// P drops off the client's network but keeps running; F1 is promoted
	// and F2 repointed at it. Nobody tells P.
	proxy.Sever()
	if _, err := Promote(f1.addr, 1); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if _, err := protocol.Call(f2.addr, &protocol.Message{ReconfigureReq: &protocol.ReconfigureRequest{Primary: f1.addr, Term: 1}}, DialTimeout); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if err := client.Delete(items[0].Doc.ID); err != nil {
		t.Fatalf("delete across failover: %v", err)
	}
	waitConverged(t, f1.eng, f2.eng)
	if f2.eng.Term() != 1 {
		t.Fatalf("F2 at term %d after following F1, want 1", f2.eng.Term())
	}

	// F1 dies and P is reachable again, still a term-0 primary.
	f1.svc.Drain(0)
	f1.stop()
	proxy.Resume()
	zombie := items[1].Doc.ID
	err = client.Delete(zombie)
	if _, ferr := pr.eng.Server().Fetch(zombie); ferr != nil {
		t.Fatalf("the delete landed on the term-0 zombie (client error: %v)", err)
	}
	if err == nil {
		t.Fatal("delete acknowledged with no primary at the current term")
	}
}
