package service

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/trace"
)

// clusterDeployment is a P-partition loopback topology with an owner daemon:
// the smallest real-TCP cluster a test can route against.
type clusterDeployment struct {
	owner     *core.Owner
	svcs      []*CloudService
	cfg       cluster.Config
	ownerAddr string
	docs      []*corpus.Document
	items     []UploadItem
}

func newClusterDeployment(t *testing.T, partitions int) *clusterDeployment {
	t.Helper()
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 12, KeywordsPerDoc: 8, Dictionary: corpus.Dictionary(100),
		MaxTermFreq: 10, ContentWords: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &clusterDeployment{owner: owner, docs: docs}
	for _, doc := range docs {
		si, enc, err := owner.Prepare(doc)
		if err != nil {
			t.Fatal(err)
		}
		d.items = append(d.items, UploadItem{Index: si, Doc: enc})
	}
	for i := 0; i < partitions; i++ {
		server, err := core.NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		svc := &CloudService{Server: server, Partition: i, Partitions: partitions}
		addr := serveLoopback(t, svc.Serve)
		d.svcs = append(d.svcs, svc)
		d.cfg.Partitions = append(d.cfg.Partitions, cluster.Partition{Primary: addr})
	}
	d.ownerAddr = serveLoopback(t, (&OwnerService{Owner: owner}).Serve)
	return d
}

func serveLoopback(t *testing.T, fn func(net.Listener) error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = fn(l) }()
	return l.Addr().String()
}

// itemOwnedBy returns an upload item whose document the map assigns to the
// given partition.
func (d *clusterDeployment) itemOwnedBy(t *testing.T, partition int) UploadItem {
	t.Helper()
	m := d.cfg.Map()
	for _, it := range d.items {
		if m.Owner(it.Index.DocID) == partition {
			return it
		}
	}
	t.Fatalf("no document in the corpus hashes to partition %d", partition)
	return UploadItem{}
}

func TestClusterInfoVerbOverTCP(t *testing.T) {
	d := newClusterDeployment(t, 2)
	for i, p := range d.cfg.Partitions {
		raw, err := net.Dial("tcp", p.Primary)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		resp, err := protocol.NewConn(raw).Roundtrip(
			&protocol.Message{ClusterInfoReq: &protocol.ClusterInfoRequest{}})
		if err != nil {
			t.Fatal(err)
		}
		ci := resp.ClusterInfoResp
		if ci == nil || ci.Partition != i || ci.Partitions != 2 {
			t.Errorf("partition %d reported identity %+v, want %d/2", i, ci, i)
		}
	}
}

// A mutation routed to the wrong partition must be rejected with the typed
// wrong-partition code — a misconfigured uploader cannot silently split a
// document across partitions.
func TestWrongPartitionMutationRejected(t *testing.T) {
	d := newClusterDeployment(t, 2)
	misrouted := d.itemOwnedBy(t, 1)

	err := UploadAll(d.cfg.Partitions[0].Primary, []UploadItem{misrouted})
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("misrouted upload: got %v, want *protocol.RemoteError", err)
	}
	if remote.Code != protocol.CodeWrongPartition {
		t.Errorf("misrouted upload rejected with code %q, want %q", remote.Code, protocol.CodeWrongPartition)
	}

	err = DeleteAll(d.cfg.Partitions[0].Primary, []string{misrouted.Index.DocID})
	if !errors.As(err, &remote) || remote.Code != protocol.CodeWrongPartition {
		t.Errorf("misrouted delete: got %v, want wrong-partition rejection", err)
	}

	// The routed path lands every document on its owner.
	if err := UploadAllCluster(d.cfg, d.items); err != nil {
		t.Fatalf("routed upload failed: %v", err)
	}
	total := 0
	for _, svc := range d.svcs {
		total += svc.Server.NumDocuments()
	}
	if total != len(d.items) {
		t.Errorf("cluster holds %d documents, want %d", total, len(d.items))
	}
}

// A miswired -cluster list (elements in the wrong order) must be caught by
// the partition-map exchange at dial time, before anything is routed.
func TestDialClusterRejectsSwappedTopology(t *testing.T) {
	d := newClusterDeployment(t, 2)
	swapped := cluster.Config{Partitions: []cluster.Partition{
		d.cfg.Partitions[1], d.cfg.Partitions[0],
	}}
	_, err := DialCluster("swapped-user", d.ownerAddr, swapped)
	if err == nil {
		t.Fatal("DialCluster accepted a swapped partition order")
	}
	if !strings.Contains(err.Error(), "identity") {
		t.Errorf("swapped-topology error %q does not mention the identity mismatch", err)
	}
}

// A single-node deployment keeps working through DialCluster even when the
// server was started without -partition: a P=1 topology routes trivially.
// And because Dial is DialCluster over one partition, the two clients must
// be indistinguishable: same matches, same span-tree shape.
func TestDialClusterToleratesUnpartitionedSingleNode(t *testing.T) {
	d := newClusterDeployment(t, 1)
	server, err := core.NewServer(d.owner.Params())
	if err != nil {
		t.Fatal(err)
	}
	svc := &CloudService{Server: server} // no cluster identity at all
	cloudAddr := serveLoopback(t, svc.Serve)
	if err := UploadAll(cloudAddr, d.items); err != nil {
		t.Fatal(err)
	}

	cfg := cluster.Config{Partitions: []cluster.Partition{{Primary: cloudAddr}}}
	viaCluster, err := DialCluster("solo-user", d.ownerAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viaCluster.Close()
	st, err := viaCluster.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 1 || st.NumDocuments != len(d.items) {
		t.Errorf("aggregate stats count %d partitions / %d documents, want 1 / %d", st.Partitions, st.NumDocuments, len(d.items))
	}

	viaDial, err := Dial("solo-user-dial", d.ownerAddr, cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer viaDial.Close()
	if got := viaDial.ClusterConfig().String(); got != cfg.String() {
		t.Errorf("Dial built topology %q, want the one-partition %q", got, cfg.String())
	}
	// Decoys differ per query, so a false accept may differ between the two
	// clients; the documents that genuinely hold both keywords may not.
	words := d.docs[3].Keywords()[:2]
	genuine := func(ms []Match) string {
		var out []Match
		for _, m := range ms {
			for _, doc := range d.docs {
				if doc.ID == m.DocID && doc.TermFreqs[words[0]] > 0 && doc.TermFreqs[words[1]] > 0 {
					out = append(out, m)
				}
			}
		}
		return fmt.Sprint(out)
	}
	shape := func(spans []trace.Span) string {
		names := map[uint64]string{}
		for _, sp := range spans {
			names[sp.ID] = sp.Name
		}
		var edges []string
		for _, sp := range spans {
			edges = append(edges, names[sp.Parent]+">"+sp.Name)
		}
		sort.Strings(edges)
		return strings.Join(edges, " ")
	}
	viaCluster.Tracer = trace.New("client", 0, nil)
	viaDial.Tracer = trace.New("client", 0, nil)
	cm, cs, err := viaCluster.TraceSearch(words, 0)
	if err != nil {
		t.Fatal(err)
	}
	dm, ds, err := viaDial.TraceSearch(words, 0)
	if err != nil {
		t.Fatal(err)
	}
	if genuine(cm) != genuine(dm) || !strings.Contains(genuine(dm), d.docs[3].ID) {
		t.Errorf("Dial and DialCluster(P=1) disagree on the genuine matches:\n dial    %v\n cluster %v", dm, cm)
	}
	const wantShape = ">client:search client:search>scatter partition>attempt scatter>partition"
	if shape(cs) != wantShape || shape(ds) != wantShape {
		t.Errorf("span trees differ from %q:\n dial    %s\n cluster %s", wantShape, shape(ds), shape(cs))
	}

	// The same unpartitioned server in a P=2 topology must be refused.
	bad := cluster.Config{Partitions: []cluster.Partition{{Primary: cloudAddr}, {Primary: cloudAddr}}}
	if _, err := DialCluster("solo-user-2", d.ownerAddr, bad); err == nil {
		t.Error("DialCluster accepted an identity-less server in a multi-partition topology")
	}
}

// A bare address list cannot say which partition a follower replicates, so
// AddReadReplicas on a multi-partition client must be rejected — and must
// leave the router untouched — rather than misroute reads to a server
// holding another partition's slice.
func TestAddReadReplicasRejectedOnMultiPartitionClient(t *testing.T) {
	d := newClusterDeployment(t, 2)
	if err := UploadAllCluster(d.cfg, d.items); err != nil {
		t.Fatal(err)
	}
	client, err := DialCluster("misuse-user", d.ownerAddr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.AddReadReplicas(d.cfg.Partitions[0].Primary); err == nil {
		t.Fatal("AddReadReplicas accepted a bare address on a 2-partition client")
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Search(d.docs[0].Keywords()[:1], 0); err != nil {
			t.Fatal(err)
		}
	}
	if dist := client.ReadDistribution(); len(dist) != 1 || dist["primary"] != 6 {
		t.Errorf("read distribution %v, want all 6 partition reads on the primaries", dist)
	}
}

func TestAggregateStats(t *testing.T) {
	agg := AggregateClusterStats([]*protocol.StatsResponse{
		{NumDocuments: 3, NumShards: 2, Durable: true},
		nil, // a failed partition contributes nothing
		{NumDocuments: 4, NumShards: 2, Durable: false},
	})
	if agg.NumDocuments != 7 || agg.NumShards != 4 {
		t.Errorf("aggregate sums wrong: %+v", agg)
	}
	if agg.Partitions != 2 {
		t.Errorf("aggregate counted %d partitions, want 2 live", agg.Partitions)
	}
	if agg.Durable {
		t.Error("aggregate durable despite a memory-only partition")
	}
	if agg.Partition != -1 {
		t.Errorf("aggregate partition index %d, want -1 marker", agg.Partition)
	}
}
