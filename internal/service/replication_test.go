package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/rank"
)

// The replication tests exercise log shipping, not cryptography: indices
// are random valid vectors (as in the durable engine's own tests) fed
// straight into the primary's engine, and convergence is judged by
// byte-identical search output — IDs, ranks and each matched document's
// stored index at every level — between primary and follower.

func replParams() core.Params {
	p := core.DefaultParams()
	p.Levels = rank.Levels{1, 5, 10}
	return p
}

var replZerosPerLevel = []int{30, 18, 8}

func replIndex(rng *rand.Rand, p core.Params, id string) *core.SearchIndex {
	zeros := rng.Perm(p.R)[:replZerosPerLevel[0]]
	si := &core.SearchIndex{DocID: id, Levels: make([]*bitindex.Vector, p.Eta())}
	for l := range si.Levels {
		v := bitindex.NewOnes(p.R)
		for _, z := range zeros[:replZerosPerLevel[l]] {
			v.SetBit(z, 0)
		}
		si.Levels[l] = v
	}
	return si
}

func replUpload(t testing.TB, eng *durable.Engine, rng *rand.Rand, p core.Params, id string) *core.SearchIndex {
	t.Helper()
	si := replIndex(rng, p, id)
	doc := &core.EncryptedDocument{ID: id, Ciphertext: []byte("body of " + id), EncKey: []byte{0xEE}}
	if err := eng.Upload(si, doc); err != nil {
		t.Fatalf("upload %s: %v", id, err)
	}
	return si
}

// replQueries builds queries that match the given indices (zero bits drawn
// from a document's own zero set).
func replQueries(rng *rand.Rand, p core.Params, indices []*core.SearchIndex) []*bitindex.Vector {
	var qs []*bitindex.Vector
	for i, si := range indices {
		if i == 8 {
			break
		}
		q := bitindex.NewOnes(p.R)
		zp := si.Levels[i%p.Eta()].ZeroPositions()
		for _, j := range rng.Perm(len(zp))[:3] {
			q.SetBit(zp[j], 0)
		}
		qs = append(qs, q)
	}
	return qs
}

// replFingerprint renders every query's results — IDs, ranks and each
// matched document's stored index at every level — into one string for
// byte-identical comparison across servers.
func replFingerprint(t testing.TB, srv *core.Server, qs []*bitindex.Vector) string {
	t.Helper()
	levels := replStoredLevels(t, srv)
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

// replStoredLevels reads every stored document's index — all levels, marshaled and
// hex-encoded — in one Export pass, keyed by document ID.
func replStoredLevels(t testing.TB, srv *core.Server) map[string]string {
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

// replPrimary is a durably backed cloud daemon serving its WAL.
type replPrimary struct {
	eng  *durable.Engine
	svc  *CloudService
	addr string
	l    net.Listener
}

func startReplPrimary(t testing.TB, p core.Params, dir string) *replPrimary {
	t.Helper()
	eng, err := durable.Open(dir, p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	svc := &CloudService{Server: eng.Server(), Store: eng, WAL: eng, Eng: eng, HeartbeatEvery: 25 * time.Millisecond}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = svc.Serve(l) }()
	t.Cleanup(func() { l.Close(); eng.Crash() })
	return &replPrimary{eng: eng, svc: svc, addr: l.Addr().String(), l: l}
}

// kill drops the primary like a crashed process: listener closed, live
// connections severed, engine abandoned without a final checkpoint. Safe to
// let the cleanup run after.
func (pr *replPrimary) kill() {
	pr.l.Close()
	pr.svc.Drain(0)
	pr.eng.Crash()
}

// replFollower is a read-only follower daemon streaming from a primary.
type replFollower struct {
	eng  *durable.Engine
	rep  *Replica
	svc  *CloudService
	addr string
	l    net.Listener
}

func startReplFollower(t testing.TB, p core.Params, dir, primaryAddr string) *replFollower {
	t.Helper()
	eng, err := durable.Open(dir, p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rep := StartReplica(eng, primaryAddr, nil)
	// Store and Eng mirror what mkse server wires in durable mode: writes are
	// rejected while the Replica field is set, and a Promote needs both to
	// flip the daemon to a fully durable primary in place.
	svc := &CloudService{Server: eng.Server(), Store: eng, WAL: eng, Eng: eng, Replica: rep, HeartbeatEvery: 25 * time.Millisecond}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = svc.Serve(l) }()
	f := &replFollower{eng: eng, rep: rep, svc: svc, addr: l.Addr().String(), l: l}
	t.Cleanup(func() { f.stop() })
	return f
}

func (f *replFollower) stop() {
	f.l.Close()
	f.rep.Close()
	f.eng.Crash()
}

// waitConverged polls until the follower's position matches the primary's.
func waitConverged(t testing.TB, primary, follower *durable.Engine) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if follower.Position() == primary.Position() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no convergence: follower at %d, primary at %d", follower.Position(), primary.Position())
}

func TestReplicaConvergesOverTCP(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(81))
	pr := startReplPrimary(t, p, t.TempDir())

	// History before the follower exists: streamed from position 0.
	var indices []*core.SearchIndex
	for i := 0; i < 20; i++ {
		indices = append(indices, replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i)))
	}
	fo := startReplFollower(t, p, t.TempDir(), pr.addr)

	// Mixed workload while the stream is live: deletes, re-uploads, new docs.
	for i := 0; i < 10; i += 2 {
		if err := pr.eng.Delete(fmt.Sprintf("doc-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 20; i < 35; i++ {
		indices = append(indices, replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i)))
	}
	indices[12] = replUpload(t, pr.eng, rng, p, "doc-012") // replacement index

	waitConverged(t, pr.eng, fo.eng)
	qs := replQueries(rand.New(rand.NewSource(82)), p, indices[10:])
	want := replFingerprint(t, pr.eng.Server(), qs)
	if got := replFingerprint(t, fo.eng.Server(), qs); got != want {
		t.Error("follower search output differs from primary after convergence")
	}
	if n1, n2 := pr.eng.Server().NumDocuments(), fo.eng.Server().NumDocuments(); n1 != n2 {
		t.Errorf("document counts diverge: primary %d, follower %d", n1, n2)
	}
}

func TestReplicaBootstrapsFromCheckpointOverTCP(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(83))
	pr := startReplPrimary(t, p, t.TempDir())

	var indices []*core.SearchIndex
	for i := 0; i < 25; i++ {
		indices = append(indices, replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i)))
	}
	// Checkpoint prunes the log below position 25, forcing any new follower
	// through the snapshot path.
	if err := pr.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := pr.eng.OldestRetained(); got != 25 {
		t.Fatalf("oldest retained %d, want 25", got)
	}
	for i := 25; i < 30; i++ {
		indices = append(indices, replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i)))
	}

	fo := startReplFollower(t, p, t.TempDir(), pr.addr)
	waitConverged(t, pr.eng, fo.eng)

	qs := replQueries(rand.New(rand.NewSource(84)), p, indices)
	want := replFingerprint(t, pr.eng.Server(), qs)
	if got := replFingerprint(t, fo.eng.Server(), qs); got != want {
		t.Error("bootstrapped follower differs from primary")
	}
}

// drippingWAL throttles a primary's log to one record per batch with a
// small delay, so a catch-up takes long enough to be interrupted mid-way.
type drippingWAL struct {
	*durable.Engine
}

func (d drippingWAL) ReadWAL(from uint64, maxBytes int) ([][]byte, uint64, error) {
	time.Sleep(200 * time.Microsecond)
	return d.Engine.ReadWAL(from, 1)
}

func TestReplicaCrashDuringCatchUpRecovers(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(85))
	pr := startReplPrimary(t, p, t.TempDir())
	pr.svc.WAL = drippingWAL{pr.eng}

	var indices []*core.SearchIndex
	for i := 0; i < 120; i++ {
		indices = append(indices, replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i)))
	}
	for i := 0; i < 120; i += 5 {
		if err := pr.eng.Delete(fmt.Sprintf("doc-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Start a follower and kill it mid-catch-up: stream torn down, engine
	// abandoned like a killed process.
	fdir := t.TempDir()
	eng, err := durable.Open(fdir, p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rep := StartReplica(eng, pr.addr, nil)
	deadline := time.Now().Add(20 * time.Second)
	for eng.Position() < 20 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	// Close waits for the stream goroutine, so the position read after it
	// is final; read before, one more record can land in between.
	rep.Close()
	killedAt := eng.Position()
	if killedAt == 0 {
		t.Fatal("follower never started applying")
	}
	if killedAt >= pr.eng.Position() {
		t.Fatalf("follower caught up (%d) before the kill; the drip throttle failed", killedAt)
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	t.Logf("killed follower at position %d of %d", killedAt, pr.eng.Position())

	// Reopen: recovery lands exactly on the synced position and the stream
	// resumes from there.
	eng, err = durable.Open(fdir, p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatalf("reopening crashed follower: %v", err)
	}
	if got := eng.Position(); got != killedAt {
		t.Fatalf("recovered at position %d, killed at %d", got, killedAt)
	}
	rep = StartReplica(eng, pr.addr, nil)
	defer func() { rep.Close(); eng.Crash() }()
	waitConverged(t, pr.eng, eng)

	qs := replQueries(rand.New(rand.NewSource(86)), p, indices[1:])
	want := replFingerprint(t, pr.eng.Server(), qs)
	if got := replFingerprint(t, eng.Server(), qs); got != want {
		t.Error("resumed follower differs from primary")
	}
}

func TestReplicaStaysConvergedUnderConcurrentWrites(t *testing.T) {
	p := replParams()
	pr := startReplPrimary(t, p, t.TempDir())
	fo1 := startReplFollower(t, p, t.TempDir(), pr.addr)
	fo2 := startReplFollower(t, p, t.TempDir(), pr.addr)

	// Concurrent writers mutate the primary while both followers stream.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var indices []*core.SearchIndex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(87 + w)))
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("w%d-doc-%03d", w, i)
				si := replIndex(rng, p, id)
				doc := &core.EncryptedDocument{ID: id, Ciphertext: []byte(id), EncKey: []byte{1}}
				if err := pr.eng.Upload(si, doc); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 3 {
					if err := pr.eng.Delete(fmt.Sprintf("w%d-doc-%03d", w, i-1)); err != nil {
						t.Error(err)
						return
					}
				} else {
					mu.Lock()
					indices = append(indices, si)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	waitConverged(t, pr.eng, fo1.eng)
	waitConverged(t, pr.eng, fo2.eng)

	qs := replQueries(rand.New(rand.NewSource(91)), p, indices)
	want := replFingerprint(t, pr.eng.Server(), qs)
	if got := replFingerprint(t, fo1.eng.Server(), qs); got != want {
		t.Error("follower 1 differs from primary under concurrent writes")
	}
	if got := replFingerprint(t, fo2.eng.Server(), qs); got != want {
		t.Error("follower 2 differs from primary under concurrent writes")
	}
}

// A primary with automatic checkpoints and a streaming follower: the
// stream reads the primary's log (ReadWAL) while checkpoints write into the
// same directory. Every checkpoint must land and cut the log, and the
// follower must answer the wire search path exactly as the primary does.
func TestCheckpointsSurviveStreamingFollower(t *testing.T) {
	p := replParams()
	rng := rand.New(rand.NewSource(95))
	eng, err := durable.Open(t.TempDir(), p, durable.Options{Fsync: durable.FsyncNever, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Crash()
	primary := &CloudService{Server: eng.Server(), Store: eng, WAL: eng, HeartbeatEvery: 25 * time.Millisecond}
	addr := serveLoopback(t, primary.Serve)
	fo := startReplFollower(t, p, t.TempDir(), addr)

	// Each round is 10 mutations (8 uploads, 2 deletes), so it triggers one
	// background checkpoint; the next round starts once it has finished.
	const rounds = 20
	var indices []*core.SearchIndex
	for r := 0; r < rounds; r++ {
		for i := 0; i < 8; i++ {
			indices = append(indices, replUpload(t, eng, rng, p, fmt.Sprintf("doc-%02d-%d", r, i)))
		}
		for _, i := range []int{2, 5} {
			if err := eng.Delete(fmt.Sprintf("doc-%02d-%d", r, i)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for st := eng.Stats(); st.Checkpoints+st.CheckpointsFailed <= r && time.Now().Before(deadline); st = eng.Stats() {
			time.Sleep(time.Millisecond)
		}
	}
	waitConverged(t, eng, fo.eng)
	if st := eng.Stats(); st.Checkpoints != rounds || st.CheckpointsFailed != 0 {
		t.Errorf("%d checkpoints taken and %d failed, want %d and 0", st.Checkpoints, st.CheckpointsFailed, rounds)
	}
	if got := eng.OldestRetained(); got == 0 {
		t.Errorf("oldest retained position still 0 at position %d", eng.Position())
	}

	req := &protocol.SearchBatchRequest{TopK: 10}
	for _, q := range replQueries(rand.New(rand.NewSource(96)), p, indices[100:]) {
		req.Queries = append(req.Queries, marshalVector(q))
	}
	want, err := primary.SearchBatchWire(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fo.svc.SearchBatchWire(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("follower's search output differs from the primary's:\n got %v\nwant %v", got.Results, want.Results)
	}
}

func TestReplicaRejectsWritesOverTCP(t *testing.T) {
	p := replParams()
	pr := startReplPrimary(t, p, t.TempDir())
	rng := rand.New(rand.NewSource(92))
	si := replUpload(t, pr.eng, rng, p, "doc-000")
	fo := startReplFollower(t, p, t.TempDir(), pr.addr)
	waitConverged(t, pr.eng, fo.eng)

	conn, err := net.Dial("tcp", fo.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)

	levels := make([][]byte, len(si.Levels))
	for i, l := range si.Levels {
		levels[i] = marshalVector(l)
	}
	_, err = pc.Roundtrip(&protocol.Message{UploadReq: &protocol.UploadRequest{
		DocID: "doc-intruder", Levels: levels, Ciphertext: []byte("x"), EncKey: []byte("k"),
	}})
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("upload to follower: %v, want read-only rejection", err)
	}
	if _, err = pc.Roundtrip(&protocol.Message{DeleteReq: &protocol.DeleteRequest{DocID: "doc-000"}}); !errors.As(err, &remote) {
		t.Fatalf("delete on follower: %v, want read-only rejection", err)
	}
	// The follower still serves reads on the same connection.
	resp, err := pc.Roundtrip(&protocol.Message{FetchReq: &protocol.FetchRequest{DocID: "doc-000"}})
	if err != nil || resp.FetchResp == nil {
		t.Fatalf("fetch from follower: %v", err)
	}
}

func TestClientFansReadsAcrossReplicas(t *testing.T) {
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, 47)
	if err != nil {
		t.Fatal(err)
	}
	pr := startReplPrimary(t, p, t.TempDir())

	docs, items, err := corpusDocsFor(owner, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := UploadAll(pr.addr, items); err != nil {
		t.Fatal(err)
	}

	fo1 := startReplFollower(t, p, t.TempDir(), pr.addr)
	fo2 := startReplFollower(t, p, t.TempDir(), pr.addr)
	waitConverged(t, pr.eng, fo1.eng)
	waitConverged(t, pr.eng, fo2.eng)

	ownerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ownerL.Close()
	go func() { _ = (&OwnerService{Owner: owner}).Serve(ownerL) }()

	client, err := Dial("fanout-user", ownerL.Addr().String(), pr.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.AddReadReplicas(fo1.addr, fo2.addr)

	words := docs[3].Keywords()[:2]
	primaryOnly, err := clientSearchVia(t, client, words, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got, err := client.Search(words, 0)
		if err != nil {
			t.Fatalf("replica-routed search %d: %v", i, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(primaryOnly) {
			t.Fatalf("replica search %d disagrees: %v vs %v", i, got, primaryOnly)
		}
	}
	dist := client.ReadDistribution()
	if dist[fo1.addr] == 0 || dist[fo2.addr] == 0 {
		t.Fatalf("reads did not fan across both replicas: %v", dist)
	}

	// A dead replica routes reads back without failing the client.
	fo1.stop()
	fo2.stop()
	for i := 0; i < 4; i++ {
		if _, err := client.Search(words, 0); err != nil {
			t.Fatalf("search after replica death: %v", err)
		}
	}
	dist = client.ReadDistribution()
	if dist["primary"] == 0 {
		t.Fatalf("reads never fell back to the primary: %v", dist)
	}
}

// corpusDocsFor prepares a small owner-indexed corpus for client tests.
func corpusDocsFor(owner *core.Owner, n int) ([]*corpus.Document, []UploadItem, error) {
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: n, KeywordsPerDoc: 12, Dictionary: corpus.Dictionary(200),
		MaxTermFreq: 15, ContentWords: 20, Seed: 11,
	})
	if err != nil {
		return nil, nil, err
	}
	items := make([]UploadItem, 0, n)
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, UploadItem{Index: si, Doc: enc})
	}
	return docs, items, nil
}

// clientSearchVia runs one search forced to the primary by temporarily
// emptying the read rotation.
func clientSearchVia(t *testing.T, c *Client, words []string, topK int) ([]Match, error) {
	t.Helper()
	c.mu.Lock()
	saved := c.parts[0].rotation
	c.parts[0].rotation = nil
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.parts[0].rotation = saved
		c.mu.Unlock()
	}()
	return c.Search(words, topK)
}

func TestReplicaStatusReportsPositionsAndFollowers(t *testing.T) {
	p := replParams()
	pr := startReplPrimary(t, p, t.TempDir())
	rng := rand.New(rand.NewSource(93))
	for i := 0; i < 10; i++ {
		replUpload(t, pr.eng, rng, p, fmt.Sprintf("doc-%03d", i))
	}
	fo := startReplFollower(t, p, t.TempDir(), pr.addr)
	waitConverged(t, pr.eng, fo.eng)
	memSrv, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	mem := serveLoopback(t, (&CloudService{Server: memSrv}).Serve)

	stats := func(addr string) *protocol.StatsResponse {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		resp, err := protocol.NewConn(conn).Roundtrip(&protocol.Message{StatsReq: &protocol.StatsRequest{}})
		if err != nil || resp.StatsResp == nil {
			t.Fatalf("stats from %s: %v", addr, err)
		}
		return resp.StatsResp
	}

	if ms := stats(mem); ms.Durable || ms.Replica || ms.WALPosition != 0 || len(ms.Followers) != 0 {
		t.Fatalf("memory-only stats: %+v, want no log and no replication", ms)
	}

	fs := stats(fo.addr)
	if !fs.Replica || !fs.Durable || !fs.ReplicaConnected || len(fs.Followers) != 0 {
		t.Fatalf("follower stats: %+v, want a connected durable replica with no followers", fs)
	}
	if fs.WALPosition != 10 || fs.PrimaryPosition < fs.WALPosition {
		t.Fatalf("follower positions: own %d, primary %d", fs.WALPosition, fs.PrimaryPosition)
	}

	// The primary learns the follower's acked position; acks trail the
	// stream by one exchange, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps := stats(pr.addr)
		if ps.Replica || !ps.Durable || ps.WALPosition != 10 || ps.PrimaryPosition != 10 {
			t.Fatalf("primary stats: %+v, want a durable non-replica at position 10", ps)
		}
		if len(ps.Followers) == 1 && ps.Followers[0].Acked == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never saw the follower's ack: %+v", ps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
