package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/service"
	"mkse/internal/store"
	"mkse/internal/telemetry"
)

// ownerCmd is `mkse owner`, the data-owner daemon of Figure 1. It performs
// the offline stage — it indexes and encrypts every document under -docs
// (plain-text files; file name = document ID) or -synthetic N generated
// ones, and uploads each to the primary of the -cloud partition owning its
// ID — then serves enrollment, trapdoor and blind-decryption requests.
func ownerCmd(fs *flag.FlagSet) func() error {
	d := daemonFlags(fs, "owner")
	var (
		levels    = levelsFlag(fs)
		listen    = fs.String("listen", ":7001", "address to listen on")
		cloud     = fs.String("cloud", "localhost:7002", "cloud topology to upload to: primary[/replica...],... in partition order")
		docsDir   = fs.String("docs", "", "directory of plaintext documents to index")
		synthetic = fs.Int("synthetic", 0, "generate N synthetic documents instead of -docs")
		seed      = fs.Int64("seed", 1, "seed for random keywords / synthetic corpus")
		state     = fs.String("state", "", "path to persist/restore the owner's secret state (protect this file!)")
	)
	return func() error {
		topo, err := cluster.ParseTargets(*cloud)
		if err != nil {
			return usageError{err}
		}
		p, err := schemeParams(*levels)
		if err != nil {
			return err
		}
		var owner *core.Owner
		if *state != "" {
			if owner, err = store.LoadOwnerFile(*state); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("restoring %s: %w", *state, err)
			}
		}
		levelsSet := false
		fs.Visit(func(f *flag.Flag) { levelsSet = levelsSet || f.Name == "levels" })
		if owner != nil && levelsSet && !slices.Equal(owner.Params().Levels, p.Levels) {
			return usagef("-levels %s disagrees with the levels %v restored from %s", *levels, owner.Params().Levels, *state)
		}
		if err := d.start(); err != nil {
			return err
		}
		defer d.close()
		logger := d.logger
		restored := owner != nil
		if restored {
			logger.Info("restored owner state", "path", *state)
		} else if owner, err = core.NewOwner(p, *seed); err != nil {
			return err
		}

		docs, err := loadDocuments(*docsDir, *synthetic, *seed)
		if err != nil {
			return err
		}
		logger.Info("indexing documents", "documents", len(docs), "eta", owner.Params().Eta())
		indices, err := owner.BuildIndexes(docs, 0)
		if err != nil {
			return fmt.Errorf("indexing: %w", err)
		}
		items := make([]service.UploadItem, 0, len(docs))
		for i, doc := range docs {
			enc, err := owner.EncryptDocument(doc)
			if err != nil {
				return fmt.Errorf("encrypting %q: %w", doc.ID, err)
			}
			items = append(items, service.UploadItem{Index: indices[i], Doc: enc})
		}
		if len(items) > 0 {
			if err := service.UploadAllCluster(topo, items); err != nil {
				return fmt.Errorf("upload: %w", err)
			}
			logger.Info("uploaded documents", "documents", len(items), "cloud", topo.String())
		}
		if !restored {
			if err := checkFreshCloud(topo, len(items), logger); err != nil {
				return err
			}
		}
		// Enrollments save concurrently with each other and with the
		// shutdown save; saveMu keeps one writer on the file at a time.
		var saveMu sync.Mutex
		saveState := func() error {
			if *state == "" {
				return nil
			}
			saveMu.Lock()
			defer saveMu.Unlock()
			if err := store.SaveOwnerFile(*state, owner); err != nil {
				return fmt.Errorf("saving state: %w", err)
			}
			logger.Info("owner state saved", "path", *state)
			return nil
		}
		if err := saveState(); err != nil {
			return err
		}

		svc := &service.OwnerService{Owner: owner, Logger: logger, Tracer: d.tracer("owner"), Persist: saveState}
		d.logTracing("request")
		if err := d.startSidecar(func() telemetry.Health { return telemetry.Health{Ready: true, Role: "owner"} }, nil); err != nil {
			return err
		}
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		d.onSignal(func() { l.Close() })
		logger.Info("listening", "addr", l.Addr().String())
		if err := svc.Serve(l); err != nil {
			return err
		}
		// The listener is closed: persist; the sidecar closes last (deferred).
		return saveState()
	}
}

// checkFreshCloud refuses an owner with fresh keys in front of a cloud
// holding documents it did not just upload: those were indexed under other
// bin keys, so every search would silently match nothing. A cloud that
// cannot be counted is logged and tolerated — an owner with nothing to
// upload may start before the cloud does.
func checkFreshCloud(topo cluster.Config, uploaded int, logger *slog.Logger) error {
	parts, err := service.FetchClusterStats(topo)
	if held := service.AggregateClusterStats(parts).NumDocuments; held > uploaded {
		return fmt.Errorf("the cloud holds %d documents but this owner, with fresh keys, uploaded %d: "+
			"the rest were indexed under another owner's keys; restart with the -state that indexed them", held, uploaded)
	}
	if err != nil {
		logger.Warn("could not count the cloud's documents", "err", err)
	}
	return nil
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
