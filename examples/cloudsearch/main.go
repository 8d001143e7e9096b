// Cloudsearch: the full three-party deployment of Figure 1 over real TCP
// sockets, in one program for demonstration. A cloud daemon and an owner
// daemon start on loopback ports; the owner indexes, encrypts and uploads a
// corpus; two independent users enroll, search and retrieve concurrently.
//
// In production the three roles run as separate processes on separate
// machines — see the owner, server and client subcommands of cmd/mkse, which
// expose exactly this flow behind flags, plus what a demo omits: crash-safe
// persistence (mkse server -data, with an -fsync durability policy),
// document removal (mkse client delete), and WAL-shipping read replicas
// (mkse server -replica-of; see examples/replication).
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"mkse"
	"mkse/internal/corpus"
	"mkse/internal/service"
)

func main() {
	params := mkse.DefaultParams()
	params.Levels = mkse.Levels{1, 5, 10}

	// --- Cloud daemon -----------------------------------------------------
	cloud, err := mkse.NewCloudServer(params)
	if err != nil {
		log.Fatal(err)
	}
	cloudL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := (&mkse.CloudService{Server: cloud}).Serve(cloudL); err != nil {
			log.Printf("cloud daemon: %v", err)
		}
	}()
	fmt.Printf("cloud daemon on %s\n", cloudL.Addr())

	// --- Owner daemon: offline stage then serve ----------------------------
	owner, err := mkse.NewOwner(params, 1)
	if err != nil {
		log.Fatal(err)
	}
	corpusDocs := []*corpus.Document{
		doc("contract-acme", "acme cloud services master contract with encrypted storage addendum"),
		doc("contract-globex", "globex consulting contract renewal with travel budget"),
		doc("incident-42", "storage outage incident postmortem: encrypted backup restored from cloud"),
		doc("roadmap", "search ranking roadmap: trapdoor rotation and blinded retrieval hardening"),
	}
	var items []service.UploadItem
	for _, d := range corpusDocs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			log.Fatal(err)
		}
		items = append(items, service.UploadItem{Index: si, Doc: enc})
	}
	if err := mkse.UploadAll(cloudL.Addr().String(), items); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner uploaded %d encrypted documents\n", len(items))

	ownerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := (&mkse.OwnerService{Owner: owner}).Serve(ownerL); err != nil {
			log.Printf("owner daemon: %v", err)
		}
	}()
	fmt.Printf("owner daemon on %s\n\n", ownerL.Addr())

	// --- Two users, concurrently -------------------------------------------
	var wg sync.WaitGroup
	queries := map[string][]string{
		"alice": {"encrypted", "cloud"},
		"bob":   {"contract", "renewal"},
	}
	for user, words := range queries {
		wg.Add(1)
		go func(user string, words []string) {
			defer wg.Done()
			client, err := mkse.Dial(user, ownerL.Addr().String(), cloudL.Addr().String())
			if err != nil {
				log.Printf("%s: %v", user, err)
				return
			}
			defer client.Close()
			matches, err := client.Search(words, 5)
			if err != nil {
				log.Printf("%s: search: %v", user, err)
				return
			}
			fmt.Printf("%s searched %v -> %d match(es)\n", user, words, len(matches))
			for _, m := range matches {
				pt, err := client.Retrieve(m.DocID)
				if err != nil {
					log.Printf("%s: retrieve %s: %v", user, m.DocID, err)
					return
				}
				fmt.Printf("%s   rank %d %-18s %q\n", user, m.Rank, m.DocID, truncate(string(pt), 48))
			}
		}(user, words)
	}
	wg.Wait()
}

func doc(id, text string) *corpus.Document {
	return &corpus.Document{ID: id, TermFreqs: corpus.Tokenize(text, 3), Content: []byte(text)}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
