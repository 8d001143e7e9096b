// Command mkse-owner runs the data-owner daemon of Figure 1 and performs the
// offline stage: it indexes and encrypts every document under -docs (plain
// text files; file name = document ID), uploads them to the cloud, then
// serves enrollment, trapdoor and blind-decryption requests.
//
// Usage:
//
//	mkse-owner -listen :7001 -cloud localhost:7002 -docs ./corpus [-levels 1,5,10]
//	           [-metrics-addr :7011] [-trace-sample 100]
//
// With -synthetic N it generates N synthetic documents instead of reading a
// directory, which is handy for trying the system end to end.
//
// -cloud takes the same topology as mkse-client: a comma-separated
// partition list, each element "primary[/replica...]", in partition order;
// a bare address is one partition. Each document is uploaded to the
// primary of the partition that owns its ID.
//
// -metrics-addr starts the telemetry sidecar (/metrics with the build-info
// gauge, /healthz, /debug/pprof, and — with -trace-sample — /traces).
// -trace-sample N samples 1 in N requests into single-span traces; a trace
// context propagated by a traced client is always continued, so the owner
// leg of an enrollment or blind decryption shows up in the client's
// assembled tree either way. -log-level debug adds a line per request.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, saves -state
// (when set), and closes the telemetry sidecar last.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"mkse/internal/cliutil"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/service"
	"mkse/internal/store"
	"mkse/internal/telemetry"
)

func main() {
	d := cliutil.NewDaemon("mkse-owner")
	var (
		listen    = flag.String("listen", ":7001", "address to listen on")
		cloud     = flag.String("cloud", "localhost:7002", "cloud topology to upload to: primary[/replica...],... in partition order")
		docsDir   = flag.String("docs", "", "directory of plaintext documents to index")
		synthetic = flag.Int("synthetic", 0, "generate N synthetic documents instead of -docs")
		levels    = flag.String("levels", "1", "comma-separated ranking thresholds (η levels)")
		seed      = flag.Int64("seed", 1, "seed for random keywords / synthetic corpus")
		state     = flag.String("state", "", "path to persist/restore the owner's secret state (protect this file!)")
	)
	d.Parse()
	logger := d.Logger
	topo, err := cluster.ParseTargets(*cloud)
	if err != nil {
		d.Exitf(2, "%v", err)
	}

	p := core.DefaultParams()
	lv, err := cliutil.ParseLevels(*levels)
	if err != nil {
		d.Exitf(2, "%v", err)
	}
	p.Levels = lv

	var owner *core.Owner
	if *state != "" {
		if restored, err := store.LoadOwnerFile(*state); err == nil {
			owner = restored
			logger.Info("restored owner state", "path", *state, "epoch", owner.Epoch())
		} else if !os.IsNotExist(err) {
			d.Exitf(1, "restoring %s: %v", *state, err)
		}
	}
	if owner == nil {
		owner, err = core.NewOwner(p, *seed)
		if err != nil {
			d.Exitf(1, "%v", err)
		}
	}

	docs, err := loadDocuments(*docsDir, *synthetic, *seed)
	if err != nil {
		d.Exitf(1, "%v", err)
	}
	logger.Info("indexing documents", "documents", len(docs), "eta", p.Eta())
	// Register the observed keyword universe so clients may use vector-mode
	// trapdoors (§4.2's alternative delivery).
	dictSet := make(map[string]bool)
	for _, doc := range docs {
		for w := range doc.TermFreqs {
			dictSet[w] = true
		}
	}
	dictionary := make([]string, 0, len(dictSet))
	for w := range dictSet {
		dictionary = append(dictionary, w)
	}
	owner.RegisterDictionary(dictionary)

	indices, err := owner.BuildIndexes(docs, 0)
	if err != nil {
		d.Exitf(1, "indexing: %v", err)
	}
	items := make([]service.UploadItem, 0, len(docs))
	for i, doc := range docs {
		enc, err := owner.EncryptDocument(doc)
		if err != nil {
			d.Exitf(1, "encrypting %q: %v", doc.ID, err)
		}
		items = append(items, service.UploadItem{Index: indices[i], Doc: enc})
	}
	if len(items) > 0 {
		if err := service.UploadAllCluster(topo, items); err != nil {
			d.Exitf(1, "upload: %v", err)
		}
		logger.Info("uploaded documents", "documents", len(items), "cloud", topo.String())
	}
	saveState := func() error {
		if *state == "" {
			return nil
		}
		if err := store.SaveOwnerFile(*state, owner); err != nil {
			return err
		}
		logger.Info("owner state saved", "path", *state)
		return nil
	}
	if err := saveState(); err != nil {
		d.Exitf(1, "saving state: %v", err)
	}

	svc := &service.OwnerService{Owner: owner, Logger: logger, Tracer: d.Tracer("owner")}
	if svc.Tracer != nil {
		logger.Info("request tracing enabled", "sample", d.TraceSample())
	}
	d.StartSidecar(func() telemetry.Health { return telemetry.Health{Ready: true, Role: "owner"} }, nil)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		d.Exitf(1, "%v", err)
	}
	d.OnSignal(func() { l.Close() })
	logger.Info("listening", "addr", l.Addr().String())
	if err := svc.Serve(l); err != nil {
		d.Exitf(1, "%v", err)
	}
	// The listener is closed: persist, then close the sidecar last.
	if err := saveState(); err != nil {
		logger.Error("state save failed", "err", err)
		os.Exit(1)
	}
	d.Close()
}

// loadDocuments reads a directory of plain-text documents, or generates a
// synthetic corpus when n > 0 and no directory is given.
func loadDocuments(dir string, n int, seed int64) ([]*corpus.Document, error) {
	if dir == "" {
		if n <= 0 {
			return nil, nil // serve with an empty database
		}
		return corpus.Generate(corpus.Config{
			NumDocs: n, KeywordsPerDoc: 20, Dictionary: corpus.Dictionary(4000),
			MaxTermFreq: 15, ContentWords: 50, Seed: seed,
		})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading corpus directory: %w", err)
	}
	var docs []*corpus.Document
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", e.Name(), err)
		}
		tf := corpus.Tokenize(string(body), 3)
		if len(tf) == 0 {
			continue
		}
		docs = append(docs, &corpus.Document{ID: e.Name(), TermFreqs: tf, Content: body})
	}
	return docs, nil
}
