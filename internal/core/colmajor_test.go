package core

import (
	"fmt"
	"sync"
	"testing"

	"mkse/internal/bitindex"
	"mkse/internal/corpus"
)

// checkColumns asserts that every column of every level holds one word per
// stored row.
func checkColumns(t *testing.T, srv *Server) {
	t.Helper()
	for si, sh := range srv.shards {
		sh.mu.RLock()
		rows := len(sh.ids)
		for l, level := range sh.cols {
			for w, col := range level {
				if len(col) != rows {
					sh.mu.RUnlock()
					t.Fatalf("shard %d level %d column %d: %d entries, %d rows", si, l+1, w, len(col), rows)
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// checkExport asserts that Export returns exactly the index last uploaded
// for every stored document — every level, word for word — and nothing
// else. This is what Upload (append and replace), Delete (swap-remove) and
// checkpoint installs must all preserve: the scan, the level walk and the
// metadata gather read only the columns, so any divergence is a silent
// wrong answer.
func checkExport(t *testing.T, srv *Server, want map[string]*SearchIndex) {
	t.Helper()
	checkColumns(t, srv)
	seen := 0
	err := srv.Export(func(si *SearchIndex, _ *EncryptedDocument) error {
		w, ok := want[si.DocID]
		if !ok {
			return fmt.Errorf("exported %q, which is not stored", si.DocID)
		}
		if len(si.Levels) != len(w.Levels) {
			return fmt.Errorf("%q: exported %d levels, uploaded %d", si.DocID, len(si.Levels), len(w.Levels))
		}
		for l := range w.Levels {
			if !si.Levels[l].Equal(w.Levels[l]) {
				return fmt.Errorf("%q: exported level %d differs from the uploaded index", si.DocID, l+1)
			}
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("Export returned %d documents, %d are stored", seen, len(want))
	}
}

// Export must return exactly the uploaded index after every mutation
// pattern — fresh upload, in-place replace, swap-remove, re-upload and a
// checkpoint install into another shard layout — and searches must stay
// byte-identical to the sequential reference at every step.
func TestExportReturnsUploadedIndex(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	docs := uploadCorpus(t, o, 60, 71, srv)
	want := make(map[string]*SearchIndex)
	upload := func(d *corpus.Document) {
		t.Helper()
		si, err := o.BuildIndex(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Upload(si, &EncryptedDocument{ID: d.ID, Ciphertext: []byte(d.ID), EncKey: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		want[d.ID] = si
	}
	for _, d := range docs {
		si, err := o.BuildIndex(d)
		if err != nil {
			t.Fatal(err)
		}
		want[d.ID] = si
	}

	u := newUserFor(t, o, "col-mirror")
	u.SeedQueryRNG(73)
	words := docs[5].Keywords()[:2]
	fetchTrapdoors(t, o, u, words)
	q, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(step string) {
		t.Helper()
		checkExport(t, srv, want)
		got, err := srv.SearchTop(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, step, got, searchReference(t, srv, q, 0))
	}
	verify("after initial upload")

	// Replace a third of the corpus in place (same IDs, new term freqs →
	// new index words written over existing rows).
	for i := 0; i < len(docs); i += 3 {
		d := docs[i]
		for w := range d.TermFreqs {
			d.TermFreqs[w] = 1 + (d.TermFreqs[w]+6)%15
		}
		upload(d)
	}
	verify("after in-place replacements")

	// Delete every other document — swap-remove churns row positions, and
	// every level's columns must follow every swap.
	for i := 0; i < len(docs); i += 2 {
		if err := srv.Delete(docs[i].ID); err != nil {
			t.Fatal(err)
		}
		delete(want, docs[i].ID)
	}
	verify("after deletions")

	// Re-upload the deleted half (rows append again at new positions).
	for i := 0; i < len(docs); i += 2 {
		upload(docs[i])
	}
	verify("after re-upload")

	// Install the state into a fresh server with another shard layout, the
	// way a checkpoint load replays Export's stream through Upload.
	installed, err := NewServerSharded(o.Params(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Export(installed.Upload); err != nil {
		t.Fatal(err)
	}
	srv = installed
	verify("after checkpoint install")

	for _, d := range docs {
		if err := srv.Delete(d.ID); err != nil {
			t.Fatal(err)
		}
		delete(want, d.ID)
	}
	verify("after deleting everything")
}

// Every returned match names a stored document at its true rank, even while
// a writer deletes and re-uploads documents: the scan reads each row's ID
// under the shard lock that also guards the swap-remove, so a match can
// never carry another row's identity. Checked per result: every DocID is a
// stored ID, no ID repeats, and each rank equals the document's rank in a
// quiesced copy of the store.
func TestSearchRowIdentityAcrossDeletes(t *testing.T) {
	o := sharedOwner(t)
	for _, layout := range []struct{ shards, workers int }{{1, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("shards=%d/workers=%d", layout.shards, layout.workers), func(t *testing.T) {
			srv, err := NewServerSharded(o.Params(), layout.shards, layout.workers)
			if err != nil {
				t.Fatal(err)
			}
			quiesced, err := NewServerSharded(o.Params(), 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			docs := uploadCorpus(t, o, 64, 89, srv, quiesced)
			var stored []*SearchIndex
			if err := srv.Export(func(si *SearchIndex, _ *EncryptedDocument) error {
				stored = append(stored, si)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			u := newUserFor(t, o, fmt.Sprintf("row-identity-%d", layout.shards))
			u.SeedQueryRNG(61)
			queries := []*bitindex.Vector{bitindex.NewOnes(o.Params().R)} // matches every document
			for _, d := range docs[:3] {
				words := d.Keywords()[:1]
				fetchTrapdoors(t, o, u, words)
				q, err := u.BuildQuery(words)
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries, q)
			}
			wantRank := make([]map[string]int, len(queries))
			for qi, q := range queries {
				ref, err := quiesced.SearchTop(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				wantRank[qi] = make(map[string]int, len(ref))
				for _, m := range ref {
					wantRank[qi][m.DocID] = m.Rank
				}
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					si := stored[i%len(stored)]
					if err := srv.Delete(si.DocID); err != nil {
						t.Error(err)
						return
					}
					if err := srv.Upload(si, &EncryptedDocument{ID: si.DocID, Ciphertext: []byte(si.DocID), EncKey: []byte{1}}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			defer func() {
				close(stop)
				wg.Wait()
			}()
			total := 0
			for i := 0; i < 400; i++ {
				qi := i % len(queries)
				ms, err := srv.SearchTop(queries[qi], 0)
				if err != nil {
					t.Fatal(err)
				}
				seen := make(map[string]bool, len(ms))
				for _, m := range ms {
					total++
					if seen[m.DocID] {
						t.Fatalf("query %d: %q returned twice in one result", qi, m.DocID)
					}
					seen[m.DocID] = true
					want, ok := wantRank[qi][m.DocID]
					if !ok {
						t.Fatalf("query %d: %q is not a stored document the query matches", qi, m.DocID)
					}
					if m.Rank != want {
						t.Fatalf("query %d: %q at rank %d, want %d", qi, m.DocID, m.Rank, want)
					}
				}
			}
			if total == 0 {
				t.Fatal("no search returned a match")
			}
		})
	}
}

// A concurrent upload/delete/search hammer over the word-major columns: the
// race detector checks the locking, the final column-length and
// reference-search checks the data. Unlike TestConcurrentUploadSearchFetch
// this mixes Delete into the write load, so searches race against
// swap-removes shifting rows between columns mid-run.
func TestConcurrentUploadDeleteSearchColumns(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seedDocs := uploadCorpus(t, o, 30, 79, srv)

	u := newUserFor(t, o, "col-hammer")
	u.SeedQueryRNG(83)
	words := seedDocs[0].Keywords()[:2]
	fetchTrapdoors(t, o, u, words)
	q, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}

	const writers, searchers, iters = 3, 3, 20
	errs := make(chan error, writers+searchers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				doc := &corpus.Document{
					ID:        fmt.Sprintf("colhammer-%d-%d", w, i),
					TermFreqs: map[string]int{"kw": 1 + i%15, fmt.Sprintf("w%d", w): 2},
				}
				si, enc, err := o.Prepare(doc)
				if err != nil {
					errs <- err
					return
				}
				if err := srv.Upload(si, enc); err != nil {
					errs <- err
					return
				}
				// Delete an earlier document of this writer's, and
				// sometimes a seed document, so swap-removes hit rows
				// other goroutines are scanning.
				if i%2 == 1 {
					if err := srv.Delete(fmt.Sprintf("colhammer-%d-%d", w, i-1)); err != nil {
						errs <- err
						return
					}
				}
				if i == iters/2 {
					if err := srv.Delete(seedDocs[w].ID); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < searchers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := srv.SearchTop(q, 5); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	checkColumns(t, srv)
	got, err := srv.SearchTop(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "post-hammer", got, searchReference(t, srv, q, 0))
}

// An empty server (and an emptied shard) must scan cleanly through the
// column kernel: zero rows means zero-length columns, not nil-column
// panics.
func TestColumnScanEmptyShards(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := bitindex.NewOnes(o.Params().R)
	res, err := srv.SearchTop(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty server matched %d documents", len(res))
	}
	checkExport(t, srv, nil)
}
