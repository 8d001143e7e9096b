package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/store"
)

// deployment spins up an owner daemon and a cloud daemon on loopback TCP
// with a small indexed corpus.
type deployment struct {
	owner     *core.Owner
	server    *core.Server
	ownerAddr string
	cloudAddr string
	docs      []*corpus.Document
}

var (
	deployOnce sync.Once
	deployVal  *deployment
	deployErr  error
)

// sharedDeployment builds one deployment for the whole test package; tests
// that mutate state use distinct documents, and enroll under freshUser IDs.
func sharedDeployment(t *testing.T) *deployment {
	deployOnce.Do(func() {
		deployVal, deployErr = newDeployment()
	})
	if deployErr != nil {
		t.Fatal(deployErr)
	}
	return deployVal
}

// userSeq numbers the users enrolled with the shared owner: it survives
// across `go test -count=N` repetitions, so a fixed ID would collide with
// its own earlier run.
var userSeq atomic.Int64

func freshUser(base string) string {
	return fmt.Sprintf("%s-%d", base, userSeq.Add(1))
}

func newDeployment() (*deployment, error) {
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, 42)
	if err != nil {
		return nil, err
	}
	server, err := core.NewServer(p)
	if err != nil {
		return nil, err
	}

	dict := corpus.Dictionary(300)
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 40, KeywordsPerDoc: 12, Dictionary: dict,
		MaxTermFreq: 15, ContentWords: 20, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	var items []UploadItem
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			return nil, err
		}
		items = append(items, UploadItem{Index: si, Doc: enc})
	}

	ownerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cloudL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = (&OwnerService{Owner: owner}).Serve(ownerL) }()
	go func() { _ = (&CloudService{Server: server}).Serve(cloudL) }()

	if err := UploadAll(cloudL.Addr().String(), items); err != nil {
		return nil, err
	}
	return &deployment{
		owner:     owner,
		server:    server,
		ownerAddr: ownerL.Addr().String(),
		cloudAddr: cloudL.Addr().String(),
		docs:      docs,
	}, nil
}

func TestFullProtocolOverTCP(t *testing.T) {
	d := sharedDeployment(t)
	client, err := Dial(freshUser("tcp-alice"), d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	target := d.docs[3]
	words := target.Keywords()[:2]
	matches, err := client.Search(words, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.DocID == target.ID {
			found = true
			if m.Rank < 1 || m.Rank > 3 {
				t.Errorf("rank %d outside [1,3]", m.Rank)
			}
		}
	}
	if !found {
		t.Fatalf("target %s not among %d matches", target.ID, len(matches))
	}

	pt, err := client.Retrieve(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, target.Content) {
		t.Error("retrieved plaintext differs from original document")
	}
}

func TestSearchTopKOverTCP(t *testing.T) {
	d := sharedDeployment(t)
	client, err := Dial(freshUser("tcp-bob"), d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	words := d.docs[0].Keywords()[:1]
	all, err := client.Search(words, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 1 {
		t.Fatal("no matches at all")
	}
	one, err := client.Search(words, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Errorf("topK=1 returned %d matches", len(one))
	}
}

func TestTrapdoorCaching(t *testing.T) {
	d := sharedDeployment(t)
	client, err := Dial(freshUser("tcp-carol"), d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	words := d.docs[5].Keywords()[:2]
	if err := client.EnsureTrapdoors(words); err != nil {
		t.Fatal(err)
	}
	sigsBefore := client.User().Costs.Snapshot().Signatures
	// Second call should be served from cache: no new signature issued.
	if err := client.EnsureTrapdoors(words); err != nil {
		t.Fatal(err)
	}
	if sigsAfter := client.User().Costs.Snapshot().Signatures; sigsAfter != sigsBefore {
		t.Errorf("trapdoor request repeated despite cached keys (%d -> %d signatures)", sigsBefore, sigsAfter)
	}
}

func TestDuplicateEnrollmentRejected(t *testing.T) {
	d := sharedDeployment(t)
	dup := freshUser("tcp-dup")
	c1, err := Dial(dup, d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := Dial(dup, d.ownerAddr, d.cloudAddr); err == nil {
		t.Error("second enrollment under the same user ID accepted")
	}
}

// A request signed by the wrong key must be rejected by the owner daemon
// (non-impersonation over the real wire).
func TestForgedTrapdoorRequestRejected(t *testing.T) {
	d := sharedDeployment(t)
	// Enroll a legitimate user.
	victimID := freshUser("tcp-victim")
	victim, err := Dial(victimID, d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	// Mallory connects raw and replays a request under the victim's ID with
	// her own signature.
	malloryKey, err := core.NewSigningKey(1024)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", d.ownerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	binIDs := []int{1, 2}
	sig, err := malloryKey.Sign(protocol.SignableTrapdoor(victimID, binIDs))
	if err != nil {
		t.Fatal(err)
	}
	_, err = pc.Roundtrip(&protocol.Message{TrapdoorReq: &protocol.TrapdoorRequest{
		UserID: victimID,
		BinIDs: binIDs,
		Sig:    sig,
	}})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("forged request not rejected: %v", err)
	}
}

func TestUnenrolledUserRejected(t *testing.T) {
	d := sharedDeployment(t)
	key, err := core.NewSigningKey(1024)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", d.ownerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	sig, err := key.Sign(protocol.SignableTrapdoor("tcp-ghost", []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Roundtrip(&protocol.Message{TrapdoorReq: &protocol.TrapdoorRequest{
		UserID: "tcp-ghost", BinIDs: []int{0}, Sig: sig,
	}}); err == nil {
		t.Error("unenrolled user served")
	}
}

func TestFetchUnknownDocumentOverTCP(t *testing.T) {
	d := sharedDeployment(t)
	client, err := Dial(freshUser("tcp-erin"), d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Retrieve("no-such-doc"); err == nil {
		t.Error("unknown document retrieved")
	}
}

func TestMalformedQueryRejectedByCloud(t *testing.T) {
	d := sharedDeployment(t)
	conn, err := net.Dial("tcp", d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	if _, err := pc.Roundtrip(&protocol.Message{SearchReq: &protocol.SearchRequest{
		Query: []byte{1, 2, 3}, // not a valid vector encoding
	}}); err == nil {
		t.Error("malformed query accepted")
	}
	// Wrong-length (but well-formed) query must also be rejected.
	conn2, err := net.Dial("tcp", d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	pc2 := protocol.NewConn(conn2)
	if _, err := pc2.Roundtrip(&protocol.Message{SearchReq: &protocol.SearchRequest{
		Query: []byte{0, 0, 0, 8, 0xFF}, // valid 8-bit vector, wrong R
	}}); err == nil {
		t.Error("wrong-size query accepted")
	}
}

func TestUnsupportedRequestsAnswered(t *testing.T) {
	d := sharedDeployment(t)
	// Cloud request sent to the owner daemon.
	conn, err := net.Dial("tcp", d.ownerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	if _, err := pc.Roundtrip(&protocol.Message{FetchReq: &protocol.FetchRequest{DocID: "x"}}); err == nil {
		t.Error("owner daemon served a cloud request")
	}
	// Owner request sent to the cloud daemon.
	conn2, err := net.Dial("tcp", d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	pc2 := protocol.NewConn(conn2)
	if _, err := pc2.Roundtrip(&protocol.Message{EnrollReq: &protocol.EnrollRequest{UserID: "x"}}); err == nil {
		t.Error("cloud daemon served an owner request")
	}
}

// An enrollment is acknowledged only once Persist has saved it: one save
// per enrollment, and a failed save refuses the enrollment.
func TestEnrollWaitsForPersist(t *testing.T) {
	d := sharedDeployment(t)
	key, err := core.NewSigningKey(d.owner.Params().RSABits)
	if err != nil {
		t.Fatal(err)
	}
	saves, saveErr := 0, error(nil)
	svc := &OwnerService{Owner: d.owner, Persist: func() error { saves++; return saveErr }}
	enroll := func(id string) *protocol.Message {
		return svc.handleEnroll(&protocol.EnrollRequest{UserID: id, UserPub: protocol.FromPublicKey(key.Public())})
	}
	if m := enroll(freshUser("persisted")); m.EnrollResp == nil || saves != 1 {
		t.Fatalf("enrollment: reply %+v after %d saves, want a reply after 1", m, saves)
	}
	saveErr = errors.New("disk full")
	if m := enroll(freshUser("unsaved")); m.Error == nil || !strings.Contains(m.Error.Text, "disk full") {
		t.Fatalf("enrollment acknowledged although its save failed: %+v", m)
	}
}

// Cloud restart: snapshot the server, bring up a fresh daemon from the
// snapshot on a new port, and verify an existing user's searches and
// retrievals work against it without any re-upload.
func TestCloudRestartFromSnapshot(t *testing.T) {
	d := sharedDeployment(t)
	var buf bytes.Buffer
	if err := store.Save(&buf, d.server); err != nil {
		t.Fatal(err)
	}
	restored, err := store.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = (&CloudService{Server: restored}).Serve(l) }()

	client, err := Dial(freshUser("tcp-restart"), d.ownerAddr, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	target := d.docs[9]
	matches, err := client.Search(target.Keywords()[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.DocID == target.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("restored daemon missed the target among %d matches", len(matches))
	}
	pt, err := client.Retrieve(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, target.Content) {
		t.Error("retrieval from restored daemon returned wrong plaintext")
	}
}

// Concurrent clients must not corrupt server state or each other.
func TestConcurrentClients(t *testing.T) {
	d := sharedDeployment(t)
	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := Dial(freshUser("tcp-conc"), d.ownerAddr, d.cloudAddr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			doc := d.docs[i]
			if _, err := client.Search(doc.Keywords()[:2], 0); err != nil {
				errs <- err
				return
			}
			pt, err := client.Retrieve(doc.ID)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(pt, doc.Content) {
				errs <- bytes.ErrTooLarge // sentinel; message unimportant
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// SearchBatch over the wire must agree query-by-query with single Search
// calls, in one round trip.
func TestSearchBatchOverTCP(t *testing.T) {
	d := sharedDeployment(t)
	client, err := Dial(freshUser("tcp-batch"), d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	queries := [][]string{
		d.docs[0].Keywords()[:2],
		d.docs[1].Keywords()[:1],
		d.docs[2].Keywords()[:2],
	}
	results, err := client.SearchBatch(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d result sets for %d queries", len(results), len(queries))
	}
	for qi, words := range queries {
		if len(results[qi]) == 0 || len(results[qi]) > 5 {
			t.Errorf("query %d returned %d matches, want 1..5", qi, len(results[qi]))
		}
		// The batch result must contain the query's source document (query
		// randomization means exact equality with a fresh Search is not
		// expected, but genuine matches never disappear).
		found := false
		for _, m := range results[qi] {
			if m.DocID == d.docs[qi].ID {
				found = true
			}
		}
		if !found && len(words) > 0 {
			// The source doc can be pushed out by τ; accept only if τ was hit.
			if len(results[qi]) < 5 {
				t.Errorf("query %d (%v) missing its source document", qi, words)
			}
		}
	}

	if res, err := client.SearchBatch(nil, 5); err != nil || res != nil {
		t.Errorf("empty batch: %v, %v", res, err)
	}
}

// A malformed query inside a batch must fail the whole request cleanly.
func TestMalformedBatchQueryRejectedByCloud(t *testing.T) {
	d := sharedDeployment(t)
	conn, err := net.Dial("tcp", d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	if _, err := pc.Roundtrip(&protocol.Message{SearchBatchReq: &protocol.SearchBatchRequest{
		Queries: [][]byte{{1, 2, 3}},
	}}); err == nil {
		t.Error("malformed batch query accepted")
	}
}

// Deletion over the wire: the document disappears from search and fetch,
// and deleting it again surfaces the server's not-found error. Runs against
// a private deployment so the shared corpus stays intact.
func TestDeleteOverTCP(t *testing.T) {
	d, err := newDeployment()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial("delete-tester", d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	target := d.docs[3]
	words := target.Keywords()[:2]
	found := func() bool {
		matches, err := client.Search(words, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if m.DocID == target.ID {
				return true
			}
		}
		return false
	}
	if !found() {
		t.Fatalf("document %s not searchable before deletion", target.ID)
	}
	if err := client.Delete(target.ID); err != nil {
		t.Fatal(err)
	}
	if found() {
		t.Fatalf("document %s still searchable after deletion", target.ID)
	}
	if _, err := client.Retrieve(target.ID); err == nil {
		t.Fatal("Retrieve of deleted document succeeded")
	}
	if err := client.Delete(target.ID); err == nil || !strings.Contains(err.Error(), "no such document") {
		t.Fatalf("second delete = %v, want no-such-document error", err)
	}
	if got, want := d.server.NumDocuments(), len(d.docs)-1; got != want {
		t.Fatalf("server holds %d documents, want %d", got, want)
	}

	// The owner-side bulk retraction removes the rest.
	rest := []string{d.docs[0].ID, d.docs[1].ID}
	if err := DeleteAll(d.cloudAddr, rest); err != nil {
		t.Fatal(err)
	}
	if got, want := d.server.NumDocuments(), len(d.docs)-3; got != want {
		t.Fatalf("after DeleteAll: %d documents, want %d", got, want)
	}
}

// A cloud daemon backed by the durable engine survives a kill: uploads and
// deletions that went through the write-ahead log are reconstructed on
// reopen, and a client of the restarted daemon sees identical results.
func TestDurableCloudRecoveryOverTCP(t *testing.T) {
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 25, KeywordsPerDoc: 10, Dictionary: corpus.Dictionary(200),
		MaxTermFreq: 15, ContentWords: 12, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var items []UploadItem
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, UploadItem{Index: si, Doc: enc})
	}

	ownerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ownerL.Close()
	go func() { _ = (&OwnerService{Owner: owner}).Serve(ownerL) }()

	dir := t.TempDir()
	eng, err := durable.Open(dir, p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cloudL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = (&CloudService{Server: eng.Server(), Store: eng}).Serve(cloudL) }()

	if err := UploadAll(cloudL.Addr().String(), items); err != nil {
		t.Fatal(err)
	}
	if err := DeleteAll(cloudL.Addr().String(), []string{docs[0].ID, docs[7].ID}); err != nil {
		t.Fatal(err)
	}

	words := docs[3].Keywords()[:2]
	c1, err := Dial("before-crash", ownerL.Addr().String(), cloudL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	before, err := c1.Search(words, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Kill the daemon: no clean close, no final checkpoint.
	cloudL.Close()
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()

	eng2, err := durable.Open(dir, p, durable.Options{})
	if err != nil {
		t.Fatalf("recovering engine: %v", err)
	}
	defer eng2.Close()
	if got := eng2.Stats().ReplayedOps; got != len(items)+2 {
		t.Fatalf("replayed %d ops, want %d", got, len(items)+2)
	}
	cloudL2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudL2.Close()
	go func() { _ = (&CloudService{Server: eng2.Server(), Store: eng2}).Serve(cloudL2) }()

	c2, err := Dial("after-crash", ownerL.Addr().String(), cloudL2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	after, err := c2.Search(words, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered daemon returned %d matches, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("match %d = %+v, want %+v", i, after[i], before[i])
		}
	}
	for _, id := range []string{docs[0].ID, docs[7].ID} {
		if _, err := c2.Retrieve(id); err == nil {
			t.Fatalf("deleted document %s retrievable after recovery", id)
		}
	}
	// The recovered daemon accepts new durable mutations.
	if err := DeleteAll(cloudL2.Addr().String(), []string{docs[3].ID}); err != nil {
		t.Fatal(err)
	}
	if got, want := eng2.Server().NumDocuments(), len(docs)-3; got != want {
		t.Fatalf("recovered daemon holds %d documents, want %d", got, want)
	}
}

// A batch of more than protocol.MaxBatchQueries queries is refused with a
// typed error before any query is decoded: the oversized batch below holds
// only malformed queries, which a decoding daemon would reject with an
// untyped "malformed query" error instead. At exactly the limit the daemon
// does decode, and that untyped error comes back.
func TestOversizedBatchRejectedBeforeDecoding(t *testing.T) {
	d := sharedDeployment(t)
	conn, err := net.Dial("tcp", d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	batch := func(n int) *protocol.Message {
		qs := make([][]byte, n)
		for i := range qs {
			qs[i] = []byte{1, 2, 3}
		}
		return &protocol.Message{SearchBatchReq: &protocol.SearchBatchRequest{Queries: qs}}
	}
	var remote *protocol.RemoteError
	_, err = pc.Roundtrip(batch(protocol.MaxBatchQueries + 1))
	if !errors.As(err, &remote) || remote.Code != protocol.CodeBatchTooLarge {
		t.Fatalf("oversized batch: got %v, want a %q rejection", err, protocol.CodeBatchTooLarge)
	}
	_, err = pc.Roundtrip(batch(protocol.MaxBatchQueries))
	if !errors.As(err, &remote) || remote.Code != "" || !strings.Contains(remote.Text, "malformed query") {
		t.Fatalf("batch at the limit: got %v, want the untyped malformed-query rejection", err)
	}
}

// Client.SearchBatch refuses an oversized batch before it derives a query or
// sends a frame: neither the user's nor the server's cost counters move.
func TestClientRefusesOversizedBatch(t *testing.T) {
	d := sharedDeployment(t)
	client, err := Dial(freshUser("big-batch"), d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	queries := make([][]string, protocol.MaxBatchQueries+1)
	for i := range queries {
		queries[i] = d.docs[i%len(d.docs)].Keywords()[:1]
	}
	userBefore, serverBefore := client.User().Costs.Snapshot(), d.server.Costs.Snapshot()
	if res, err := client.SearchBatch(queries, 5); err == nil || res != nil {
		t.Fatalf("oversized batch: %d results, err %v; want a refusal", len(res), err)
	}
	if got := client.User().Costs.Snapshot(); got != userBefore {
		t.Errorf("user costs moved on a refused batch: %+v, was %+v", got, userBefore)
	}
	if got := d.server.Costs.Snapshot(); got != serverBefore {
		t.Errorf("server costs moved on a refused batch: %+v, was %+v", got, serverBefore)
	}
}

// SearchBatchWire of one query, without a cache, allocates the request's
// own bookkeeping and the core scan's result and nothing per match: the
// matches core returns are the slice the frame carries, not copied or
// marshaled on the way.
func TestSearchBatchWireOfOneAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	p := replParams()
	srv, err := core.NewServerSharded(p, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var indices []*core.SearchIndex
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		si := replIndex(rng, p, id)
		if err := srv.Upload(si, &core.EncryptedDocument{ID: id, Ciphertext: []byte(id), EncKey: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		indices = append(indices, si)
	}
	svc := &CloudService{Server: srv}
	req := &protocol.SearchBatchRequest{Queries: [][]byte{marshalVector(bitindex.NewOnes(p.R))}, TopK: 5}
	resp, err := svc.SearchBatchWire(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(resp.Results[0]); n != 5 {
		t.Fatalf("all-ones query returned %d matches, want 5", n)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := svc.SearchBatchWire(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	// The response and its result list, the decoded query (vector and
	// words) and the list of queries to scan, core's result list and the
	// one copy of the τ-cut. A per-match cost would add at least five.
	const budget = 7
	if got > budget {
		t.Errorf("SearchBatchWire of one with 5 matches allocates %.0f times, want <= %d", got, budget)
	}
}
