// Fault-injection suite for the scatter-gather cluster: partitions stall and
// crash mid-search behind a fault-injecting TCP proxy, and the fat client
// must degrade exactly as specified — typed partial-result errors naming the
// dead partition, replica fallback serving the full result when the
// partition has a follower, and no data races when searchers hammer the
// cluster while documents churn.
package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/faultnet"
	"mkse/internal/harness"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/service"
)

// faultCluster starts a P-partition cluster with a fault proxy in front of
// partition `faulted`'s primary, uploads a corpus routed by the map, and
// dials a fat client through the proxied topology.
type faultCluster struct {
	clu    *harness.Cluster
	proxy  *faultnet.Proxy
	cfg    cluster.Config
	owner  *core.Owner
	docs   []*corpus.Document
	client *service.Client
}

func startFaultCluster(t *testing.T, owner *core.Owner, partitions, faulted int, opts harness.Options, user string) *faultCluster {
	t.Helper()
	clu, err := harness.StartCluster(owner.Params(), partitions, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)

	proxy, err := faultnet.Listen(clu.Primaries[faulted].Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	cfg := clu.Config()
	cfg.Partitions[faulted].Primary = proxy.Addr()

	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 24, KeywordsPerDoc: 10, Dictionary: corpus.Dictionary(120),
		MaxTermFreq: 15, ContentWords: 10, Seed: 900 + int64(partitions),
	})
	if err != nil {
		t.Fatal(err)
	}
	var items []service.UploadItem
	for _, doc := range docs {
		si, enc, err := owner.Prepare(doc)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, service.UploadItem{Index: si, Doc: enc})
	}
	if err := service.UploadAllCluster(cfg, items); err != nil {
		t.Fatal(err)
	}

	ol, oaddr, err := harness.StartOwner(owner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ol.Close() })
	client, err := service.DialCluster(user, oaddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	client.PartitionTimeout = 250 * time.Millisecond

	return &faultCluster{clu: clu, proxy: proxy, cfg: cfg, owner: owner, docs: docs, client: client}
}

// ownedBy returns a document the partition map assigns to the given partition.
func (f *faultCluster) ownedBy(t *testing.T, partition int) *corpus.Document {
	t.Helper()
	m := f.cfg.Map()
	for _, d := range f.docs {
		if m.Owner(d.ID) == partition {
			return d
		}
	}
	t.Fatalf("no document hashes to partition %d", partition)
	return nil
}

// A stalled partition — connection open, no byte moving — must burn only its
// bounded per-partition deadline, then yield the survivors' merged results
// alongside a typed partial error; after the stall lifts, the client redials
// and full service resumes with no intervention.
func TestStalledPartitionYieldsPartialResult(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 201)
	f := startFaultCluster(t, owner, 2, 1, harness.Options{}, "stall-user")
	words := f.ownedBy(t, 0).Keywords()[:2]

	if _, err := f.client.Search(words, 5); err != nil {
		t.Fatalf("search through healthy proxy failed: %v", err)
	}

	f.proxy.Stall()
	start := time.Now()
	matches, err := f.client.Search(words, 5)
	elapsed := time.Since(start)
	var partial *cluster.PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("search against a stalled partition: got %v, want *cluster.PartialError", err)
	}
	if len(partial.Failures) != 1 || partial.Failures[0].Partition != 1 {
		t.Errorf("partial error blames %+v, want partition 1", partial.Failures)
	}
	if partial.Partitions != 2 {
		t.Errorf("partial error reports %d partitions, want 2", partial.Partitions)
	}
	if len(matches) == 0 {
		t.Error("no results from the surviving partition")
	}
	if elapsed > 5*time.Second {
		t.Errorf("stalled partition burned %v — the per-partition deadline is not bounding the fan-out", elapsed)
	}

	f.proxy.Resume()
	if _, err := f.client.Search(words, 5); err != nil {
		t.Errorf("search after stall lifted: %v, want recovery via redial", err)
	}
}

// A severed partition — crashed host, connections cut — must be named, by
// index and address, in the typed error returned alongside the survivors'
// results, for searches and batched searches alike.
func TestSeveredPartitionNamedInError(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 202)
	f := startFaultCluster(t, owner, 3, 2, harness.Options{}, "sever-user")
	words := f.ownedBy(t, 0).Keywords()[:2]

	f.proxy.Sever()
	matches, err := f.client.Search(words, 0)
	var partial *cluster.PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("search against a severed partition: got %v, want *cluster.PartialError", err)
	}
	fail := partial.Failures[0]
	if fail.Partition != 2 || fail.Addr != f.proxy.Addr() {
		t.Errorf("failure names partition %d at %s, want 2 at %s", fail.Partition, fail.Addr, f.proxy.Addr())
	}
	if len(matches) == 0 {
		t.Error("no results from the two surviving partitions")
	}

	batch, err := f.client.SearchBatch([][]string{words, f.ownedBy(t, 1).Keywords()[:1]}, 5)
	if !errors.As(err, &partial) {
		t.Fatalf("batch search against a severed partition: got %v, want *cluster.PartialError", err)
	}
	if len(batch) != 2 {
		t.Errorf("batch returned %d result sets, want 2 (partial)", len(batch))
	}

	// The operator's stats verb goes through the same router: the
	// survivors answer and the severed partition is named.
	stats, err := service.FetchClusterStats(f.cfg)
	if !errors.As(err, &partial) || len(partial.Failures) != 1 || partial.Failures[0].Partition != 2 {
		t.Fatalf("stats against a severed partition: got %v, want a *cluster.PartialError naming partition 2", err)
	}
	if len(stats) != 3 || stats[2] != nil {
		t.Fatalf("stats returned %v, want three entries with none for partition 2", stats)
	}
	for i, st := range stats[:2] {
		if want := f.clu.Primaries[i].Svc.Server.NumDocuments(); st == nil || st.NumDocuments != want {
			t.Errorf("partition %d stats %+v, want its %d documents", i, st, want)
		}
	}
}

// When the dead partition has a read replica, the fan-out must fall back to
// it and return the complete merged result with no error at all — the
// failure is invisible to the caller.
func TestReplicaFallbackServesFullResult(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 203)
	f := startFaultCluster(t, owner, 2, 1, harness.Options{Durable: true, Followers: 1}, "fallback-user")
	if err := f.clu.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Target a document owned by the partition about to die: only the
	// replica can produce it.
	target := f.ownedBy(t, 1)
	f.proxy.Sever()
	matches, err := f.client.Search(target.Keywords()[:2], 0)
	if err != nil {
		t.Fatalf("search with replica fallback returned %v, want nil (failure should be invisible)", err)
	}
	found := false
	for _, m := range matches {
		if m.DocID == target.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("dead partition's document %s missing — replica fallback did not serve it", target.ID)
	}
}

// A stalled primary must bound a mutation and a fetch exactly as it bounds a
// search: a typed timeout within the partition budget — not a wait under the
// client mutex that blocks every other call — and, after the stall lifts,
// recovery via redial with no intervention.
func TestStalledPrimaryBoundsMutationAndFetch(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 205)
	f := startFaultCluster(t, owner, 2, 1, harness.Options{}, "stalled-mutation-user")
	m := f.cfg.Map()
	var owned []string
	for _, d := range f.docs {
		if m.Owner(d.ID) == 1 {
			owned = append(owned, d.ID)
		}
	}
	if len(owned) < 3 {
		t.Fatalf("only %d documents hash to partition 1, need 3", len(owned))
	}

	si, enc, err := f.owner.Prepare(f.ownedBy(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	f.proxy.Stall()
	bounded := func(name string, call func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("%s against a stalled primary: got %v, want a timeout", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked after 10s: the stalled primary wedged the client", name)
		}
	}
	bounded("delete", func() error { return f.client.Delete(owned[0]) })
	bounded("retrieve", func() error { _, err := f.client.Retrieve(owned[1]); return err })
	// The owner's bulk verbs route through the same router, under the same
	// bound.
	bounded("bulk upload", func() error {
		return service.UploadAllCluster(f.cfg, []service.UploadItem{{Index: si, Doc: enc}})
	})
	bounded("bulk delete", func() error { return service.DeleteAllCluster(f.cfg, owned[:2]) })

	// Healthy partitions stay writable on the same client meanwhile.
	if err := f.client.Delete(f.ownedBy(t, 0).ID); err != nil {
		t.Errorf("delete on the healthy partition during the stall: %v", err)
	}

	// The timed-out delete's bytes may still be delivered once the stall
	// lifts, so recovery is asserted on documents no stalled request named.
	f.proxy.Resume()
	if _, err := f.client.Retrieve(owned[2]); err != nil {
		t.Errorf("retrieve after stall lifted: %v, want recovery via redial", err)
	}
	if err := f.client.Delete(owned[2]); err != nil {
		t.Errorf("delete after stall lifted: %v, want recovery via redial", err)
	}
}

// A stalled owner daemon must bound the client's owner exchanges as a
// stalled primary bounds its cloud exchanges: a trapdoor fetch for a new
// word returns a timeout within DialTimeout instead of waiting forever
// under the client mutex.
func TestStalledOwnerBoundsTrapdoorFetch(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 207)
	clu, err := harness.StartCluster(owner.Params(), 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	ol, oaddr, err := harness.StartOwner(owner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ol.Close() })
	proxy, err := faultnet.Listen(oaddr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := service.DialCluster("stalled-owner-user", proxy.Addr(), clu.Config())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	// Registered last, so it runs first: closing the proxy releases a
	// request still blocked behind the stall before Close takes the mutex.
	t.Cleanup(proxy.Close)

	proxy.Stall()
	done := make(chan error, 1)
	go func() { done <- client.EnsureTrapdoors([]string{"asked-after-the-stall"}) }()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("trapdoor fetch against a stalled owner: got %v, want a timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("trapdoor fetch still blocked after 10s: the stalled owner wedged the client")
	}
}

// Failover composed with the cluster: partition 1's primary dies and its
// follower is promoted without the client being told. The cluster client
// must follow the promotion — writes land on the new primary, searches
// report no partial result — and the surviving primaries' merged wire bytes
// must equal a single-node reference holding the acknowledged writes.
func TestClusterClientFollowsPartitionFailover(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 206)
	f := startFaultCluster(t, owner, 2, 0, harness.Options{Durable: true, Followers: 1}, "cluster-failover-user")
	if err := f.clu.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewServer(owner.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range f.docs {
		si, enc, err := owner.Prepare(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
	}

	dead, promoted := f.clu.Primaries[1], f.clu.Followers[1][0]
	dead.L.Close()
	dead.Svc.Drain(0)
	if _, err := service.Promote(promoted.Addr, 1); err != nil {
		t.Fatalf("promote: %v", err)
	}

	victim, target := f.ownedBy(t, 1), f.ownedBy(t, 0)
	if err := f.client.Delete(victim.ID); err != nil {
		t.Fatalf("delete of a partition-1 document across its failover: %v", err)
	}
	if err := ref.Delete(victim.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.Eng.Server().Fetch(victim.ID); err == nil {
		t.Error("the delete did not land on the promoted primary")
	}
	// The owner's bulk upload follows the same promotion: a new partition-1
	// document lands on the promoted primary and joins the reference.
	fresh := *victim
	for n := 0; fresh.ID == victim.ID || f.cfg.Map().Owner(fresh.ID) != 1; n++ {
		fresh.ID = fmt.Sprintf("after-failover-%d", n)
	}
	si, enc, err := owner.Prepare(&fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := service.UploadAllCluster(f.cfg, []service.UploadItem{{Index: si, Doc: enc}}); err != nil {
		t.Fatalf("bulk upload of a partition-1 document across its failover: %v", err)
	}
	if err := ref.Upload(si, enc); err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.Eng.Server().Fetch(fresh.ID); err != nil {
		t.Errorf("the bulk upload did not land on the promoted primary: %v", err)
	}
	matches, err := f.client.Search(target.Keywords()[:2], 0)
	if err != nil {
		t.Fatalf("search across the failover: %v, want a complete result", err)
	}
	found := false
	for _, mt := range matches {
		found = found || mt.DocID == target.ID
		if mt.DocID == victim.ID {
			t.Errorf("deleted document %s still returned", victim.ID)
		}
	}
	if !found {
		t.Errorf("target %s missing from the merged result", target.ID)
	}

	rng := rand.New(rand.NewSource(206))
	refSvc := &service.CloudService{Server: ref}
	for qi := 0; qi < 5; qi++ {
		kw := f.docs[rng.Intn(len(f.docs))].Keywords()
		req := &protocol.SearchRequest{Query: buildQuery(owner, owner.RandomTrapdoors(), rng, kw[:1+rng.Intn(2)]), TopK: rng.Intn(8)}
		want, err := refSvc.SearchWire(req)
		if err != nil {
			t.Fatal(err)
		}
		var lists [][]protocol.MatchWire
		for _, svc := range []*service.CloudService{f.clu.Primaries[0].Svc, promoted.Svc} {
			resp, err := svc.SearchWire(req)
			if err != nil {
				t.Fatal(err)
			}
			lists = append(lists, resp.Matches)
		}
		merged := cluster.MergeWire(lists, req.TopK)
		if !bytes.Equal(gobBytes(t, merged), gobBytes(t, want.Matches)) {
			t.Fatalf("query %d: merged wire bytes across the failover diverge from the single-node reference", qi)
		}
	}
}

// Race hammer: concurrent fat clients search every partition while documents
// churn through routed uploads and deletes. Run under -race in CI; the
// assertions here are only that nothing errors or deadlocks.
func TestClusterConcurrentSearchAndChurn(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 204)
	clu, err := harness.StartCluster(owner.Params(), 3, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	cfg := clu.Config()

	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 40, KeywordsPerDoc: 10, Dictionary: corpus.Dictionary(150),
		MaxTermFreq: 15, ContentWords: 10, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]service.UploadItem, len(docs))
	for i, doc := range docs {
		si, enc, err := owner.Prepare(doc)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = service.UploadItem{Index: si, Doc: enc}
	}
	// The first half is stable ground for the searchers; the second half
	// churns.
	if err := service.UploadAllCluster(cfg, items[:20]); err != nil {
		t.Fatal(err)
	}
	churn := items[20:]
	churnIDs := make([]string, len(churn))
	for i, it := range churn {
		churnIDs[i] = it.Index.DocID
	}

	ol, oaddr, err := harness.StartOwner(owner)
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for s := 0; s < 3; s++ {
		client, err := service.DialCluster(fmt.Sprintf("hammer-%d", s), oaddr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		wg.Add(1)
		go func(c *service.Client, s int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				words := docs[(s*7+i)%20].Keywords()[:2]
				if _, err := c.Search(words, 5); err != nil {
					errCh <- fmt.Errorf("searcher %d iteration %d: %w", s, i, err)
					return
				}
			}
		}(client, s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := service.UploadAllCluster(cfg, churn); err != nil {
				errCh <- fmt.Errorf("churn upload %d: %w", i, err)
				return
			}
			if err := service.DeleteAllCluster(cfg, churnIDs); err != nil {
				errCh <- fmt.Errorf("churn delete %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
