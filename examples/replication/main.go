// Replication: a WAL-shipping primary/follower deployment in one program.
// A durably backed primary cloud daemon starts on a loopback port; an owner
// uploads a corpus; two read-only followers bootstrap from the primary's
// log, converge, and a user's client fans its searches across them while
// deletes and fresh uploads keep flowing through the primary.
//
// In production the daemons run as separate processes:
//
//	mkse server -listen :7002 -data /var/lib/mkse                       # primary
//	mkse server -listen :7003 -data /var/lib/mkse-r1 -replica-of h:7002 # follower
//	mkse client -cloud ... search encrypted cloud                       # reads
//
// A follower rejects writes, reports its lag to read balancers, and can be
// promoted by restarting it without -replica-of.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"mkse"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/service"
)

func main() {
	params := mkse.DefaultParams()
	params.Levels = mkse.Levels{1, 5, 10}

	// --- Primary: durable engine + cloud daemon ----------------------------
	primaryDir, err := os.MkdirTemp("", "mkse-primary-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(primaryDir)
	primary, err := durable.Open(primaryDir, params, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()
	primarySvc := &service.CloudService{Server: primary.Server(), Store: primary, WAL: primary}
	primaryAddr := serve(primarySvc.Serve)
	fmt.Printf("primary on %s (data dir %s)\n", primaryAddr, primaryDir)

	// --- Owner: index, encrypt, upload -------------------------------------
	owner, err := mkse.NewOwner(params, 1)
	if err != nil {
		log.Fatal(err)
	}
	texts := map[string]string{
		"contract-acme":   "acme cloud services master contract with encrypted storage addendum",
		"contract-globex": "globex consulting contract renewal with travel budget",
		"incident-42":     "storage outage incident postmortem: encrypted backup restored from cloud",
		"roadmap":         "search ranking roadmap: trapdoor rotation and blinded retrieval hardening",
	}
	var items []service.UploadItem
	for id, text := range texts {
		d := &corpus.Document{ID: id, TermFreqs: corpus.Tokenize(text, 3), Content: []byte(text)}
		si, enc, err := owner.Prepare(d)
		if err != nil {
			log.Fatal(err)
		}
		items = append(items, service.UploadItem{Index: si, Doc: enc})
	}
	if err := mkse.UploadAll(primaryAddr, items); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner uploaded %d encrypted documents\n", len(items))

	ownerSvc := &mkse.OwnerService{Owner: owner}
	ownerAddr := serve(ownerSvc.Serve)

	// --- Two followers: bootstrap and stream the primary's log -------------
	var replicaAddrs []string
	var followers []*durable.Engine
	for i := 1; i <= 2; i++ {
		dir, err := os.MkdirTemp("", fmt.Sprintf("mkse-replica%d-", i))
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		eng, err := durable.Open(dir, params, durable.Options{Fsync: durable.FsyncNever})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		rep := service.StartReplica(eng, primaryAddr, nil)
		defer rep.Close()
		svc := &service.CloudService{Server: eng.Server(), WAL: eng, Replica: rep}
		addr := serve(svc.Serve)
		replicaAddrs = append(replicaAddrs, addr)
		followers = append(followers, eng)

		for eng.Position() < primary.Position() {
			time.Sleep(time.Millisecond)
		}
		st := rep.Status()
		fmt.Printf("follower %d on %s caught up (position %d, lag %d)\n",
			i, addr, st.Position, st.PrimaryPosition-st.Position)
	}

	// --- A user searches; reads fan across the followers -------------------
	client, err := mkse.Dial("alice", ownerAddr, primaryAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.AddReadReplicas(replicaAddrs...); err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		matches, err := client.Search([]string{"encrypted", "cloud"}, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("search %d -> %d match(es)\n", i+1, len(matches))
	}
	fmt.Printf("read distribution: %v\n", client.ReadDistribution())

	// --- Writes still flow through the primary and replicate ---------------
	if err := client.Delete("contract-globex"); err != nil {
		log.Fatal(err)
	}
	for _, eng := range followers {
		for eng.Position() < primary.Position() {
			time.Sleep(time.Millisecond)
		}
	}
	fmt.Printf("deleted contract-globex through the primary; every follower converged at %d documents\n",
		followers[0].Server().NumDocuments())
}

// serve starts a daemon on a loopback listener and returns its address.
func serve(fn func(net.Listener) error) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := fn(l); err != nil {
			log.Printf("daemon: %v", err)
		}
	}()
	return l.Addr().String()
}
