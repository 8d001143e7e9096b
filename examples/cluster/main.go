// Cluster: a partitioned scatter-gather deployment in one program. Two
// cloud daemons start on loopback ports, each owning one partition of the
// static doc-ID hash map; an owner uploads a corpus routed by the map; a
// fat client fans its searches across both partitions and merges the
// per-partition top-τ lists into the exact order a single server holding
// everything would return. Finally one partition is severed mid-flight to
// show the typed partial-result error naming the dead partition.
//
// In production the daemons run as separate processes:
//
//	mkse server -listen :7002 -partition 0/2   # partition 0
//	mkse server -listen :7003 -partition 1/2   # partition 1
//	mkse owner  -listen :7001 -cloud host:7002,host:7003 -docs ./corpus
//	mkse client -cloud host:7002,host:7003 search encrypted cloud
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"mkse"
	"mkse/internal/corpus"
)

func main() {
	params := mkse.DefaultParams()
	params.Levels = mkse.Levels{1, 5, 10}

	// --- Two partition primaries, each owning half the hash space ----------
	const partitions = 2
	var cfg mkse.ClusterConfig
	var svcs []*mkse.CloudService
	var listeners []net.Listener
	for i := 0; i < partitions; i++ {
		server, err := mkse.NewCloudServer(params)
		if err != nil {
			log.Fatal(err)
		}
		svc := &mkse.CloudService{Server: server, Partition: i, Partitions: partitions}
		l, addr := serve(svc.Serve)
		fmt.Printf("partition %d/%d on %s\n", i, partitions, addr)
		cfg.Partitions = append(cfg.Partitions, mkse.ClusterPartition{Primary: addr})
		svcs = append(svcs, svc)
		listeners = append(listeners, l)
	}

	// --- Owner: index, encrypt, upload routed by the partition map ---------
	owner, err := mkse.NewOwner(params, 1)
	if err != nil {
		log.Fatal(err)
	}
	texts := map[string]string{
		"contract-acme":   "acme cloud services master contract with encrypted storage addendum",
		"contract-globex": "globex consulting contract renewal with travel budget",
		"incident-42":     "storage outage incident postmortem: encrypted backup restored from cloud",
		"roadmap":         "search ranking roadmap: trapdoor rotation and blinded retrieval hardening",
		"handbook":        "employee handbook: encrypted laptop policy and cloud account hygiene",
		"audit-2026":      "storage audit twenty twenty six: encrypted volumes and cloud retention",
	}
	var items []mkse.UploadItem
	for id, text := range texts {
		d := &corpus.Document{ID: id, TermFreqs: corpus.Tokenize(text, 3), Content: []byte(text)}
		si, enc, err := owner.Prepare(d)
		if err != nil {
			log.Fatal(err)
		}
		items = append(items, mkse.UploadItem{Index: si, Doc: enc})
	}
	if err := mkse.UploadAllCluster(cfg, items); err != nil {
		log.Fatal(err)
	}
	m := cfg.Map()
	perPart := make([]int, partitions)
	for _, it := range items {
		perPart[m.Owner(it.Index.DocID)]++
	}
	fmt.Printf("owner uploaded %d encrypted documents, routed %v across partitions\n", len(items), perPart)

	ownerSvc := &mkse.OwnerService{Owner: owner}
	_, ownerAddr := serve(ownerSvc.Serve)

	// --- A fat client scatter-gathers across both partitions ---------------
	client, err := mkse.DialCluster("alice", ownerAddr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.PartitionTimeout = 500 * time.Millisecond

	matches, err := client.Search([]string{"encrypted", "cloud"}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scatter-gather search -> %d match(es), best %q (rank %d)\n",
		len(matches), matches[0].DocID, matches[0].Rank)

	// The merged order must be exactly what one server holding everything
	// would return (the test suite asserts byte-level agreement); show the
	// operational invariant here: globally rank-sorted, ties by document ID.
	sorted := true
	for i := 1; i < len(matches); i++ {
		if matches[i].Rank > matches[i-1].Rank ||
			(matches[i].Rank == matches[i-1].Rank && matches[i].DocID < matches[i-1].DocID) {
			sorted = false
		}
	}
	fmt.Printf("merge agreement: globally ordered=%v\n", sorted)

	// --- Routed mutation and aggregated stats ------------------------------
	if err := client.Delete("contract-globex"); err != nil {
		log.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted contract-globex via its owning partition; cluster stats: %d documents across %d partitions\n",
		st.NumDocuments, st.Partitions)

	// --- Sever one partition: the failure is typed and named ---------------
	listeners[1].Close() // no new connections...
	svcs[1].Drain(0)     // ...and the established ones are cut
	matches, err = client.Search([]string{"encrypted", "cloud"}, 5)
	var partial *mkse.PartialError
	if !errors.As(err, &partial) {
		log.Fatalf("expected a partial-result error after severing partition 1, got %v", err)
	}
	fmt.Printf("partition severed: %d match(es) from survivors; error names partition %d (%s)\n",
		len(matches), partial.Failures[0].Partition, partial.Failures[0].Addr)
}

// serve starts a daemon on a loopback listener and returns it with its
// address.
func serve(fn func(net.Listener) error) (net.Listener, string) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = fn(l) }()
	return l, l.Addr().String()
}
