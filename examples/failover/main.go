// Failover: an observer-driven automatic failover in one program. A durably
// backed primary and two followers start on loopback ports; an observer
// health-probes the primary; the primary is killed mid-run; the observer
// detects the outage, elects the lowest-lag follower, promotes it under a
// raised fencing term, and repoints the survivor — while a client keeps
// writing, following the topology change on its own.
//
// In production the daemons run as separate processes:
//
//	mkse server   -listen :7002 -data /var/lib/mkse                         # primary
//	mkse server   -listen :7003 -data /var/lib/mkse-r1 -replica-of h:7002   # follower
//	mkse server   -listen :7004 -data /var/lib/mkse-r2 -replica-of h:7002   # follower
//	mkse observer -cloud h:7002/h:7003/h:7004                               # failover
package main

import (
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"time"

	"mkse"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/observer"
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
	primarySvc := &service.CloudService{Server: primary.Server(), Store: primary, WAL: primary, Eng: primary}
	primaryL, primaryAddr := listen()
	go func() { _ = primarySvc.Serve(primaryL) }()
	fmt.Printf("primary on %s (term %d)\n", primaryAddr, primary.Term())

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
	ownerL, ownerAddr := listen()
	go func() { _ = ownerSvc.Serve(ownerL) }()

	// --- Two followers, wired exactly like `mkse server -replica-of` -------
	var followerAddrs []string
	var followers []*durable.Engine
	var followerSvcs []*service.CloudService
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
		defer eng.Crash()
		svc := &service.CloudService{
			Server: eng.Server(), Store: eng, WAL: eng, Eng: eng,
			Replica: service.StartReplica(eng, primaryAddr, nil),
		}
		l, addr := listen()
		go func() { _ = svc.Serve(l) }()
		followerAddrs = append(followerAddrs, addr)
		followers = append(followers, eng)
		followerSvcs = append(followerSvcs, svc)
		for eng.Position() < primary.Position() {
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("follower %d on %s caught up at position %d\n", i, addr, eng.Position())
	}

	// --- The observer watches the primary ----------------------------------
	obs := observer.New(observer.Config{
		Primary:      primaryAddr,
		Followers:    followerAddrs,
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 250 * time.Millisecond,
		FailAfter:    3,
		Logger:       slog.New(slog.NewTextHandler(os.Stdout, nil)),
		OnFailover: func(oldPrimary, newPrimary string, term uint64) {
			fmt.Printf(">>> failover: %s -> %s at term %d\n", oldPrimary, newPrimary, term)
		},
	})
	obs.Start()
	defer obs.Close()

	// --- A client writes through the primary -------------------------------
	client, err := mkse.Dial("alice", ownerAddr, primaryAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.AddReadReplicas(followerAddrs...); err != nil {
		log.Fatal(err)
	}

	// --- Kill the primary like a crashed process ---------------------------
	fmt.Println("killing the primary…")
	primaryL.Close()
	primarySvc.Drain(0)
	primary.Crash()

	deadline := time.Now().Add(30 * time.Second)
	for obs.Status().Failovers == 0 {
		if time.Now().After(deadline) {
			log.Fatal("observer never failed over")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := obs.Status()
	fmt.Printf("new primary: %s (observer term %d)\n", st.Primary, st.Term)

	// --- The client's next write follows the topology on its own -----------
	if err := client.Delete("contract-globex"); err != nil {
		log.Fatal(err)
	}
	matches, err := client.Search([]string{"encrypted", "cloud"}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failover: delete + search succeeded (%d matches) with zero manual steps\n", len(matches))

	// The survivor is repointed at the new primary and converges with it.
	var newPrimary, survivor *durable.Engine
	for i, addr := range followerAddrs {
		if addr == st.Primary {
			newPrimary = followers[i]
		} else {
			survivor = followers[i]
		}
	}
	for survivor.Position() < newPrimary.Position() {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("survivor converged: both at position %d, %d documents, term %d\n",
		survivor.Position(), survivor.Server().NumDocuments(), newPrimary.Term())

	// Close whatever replica streams are live now (roles moved at runtime).
	for _, svc := range followerSvcs {
		if r := svc.CurrentReplica(); r != nil {
			r.Close()
		}
	}
}

// listen opens a loopback listener for one daemon.
func listen() (net.Listener, string) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return l, l.Addr().String()
}
