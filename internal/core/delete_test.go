package core

import (
	"errors"
	"fmt"
	"testing"
)

// Deleting documents must leave search output byte-identical to a server
// that never stored them, for every shard layout — the swap-removed arena
// rows may be visited by a scan neither as matches nor as metadata.
func TestDeleteMatchesNeverUploadedBaseline(t *testing.T) {
	o := sharedOwner(t)
	layouts := []struct{ shards, workers int }{{1, 1}, {4, 2}, {7, 16}}
	servers := make([]*Server, len(layouts))
	for i, l := range layouts {
		srv, err := NewServerSharded(o.Params(), l.shards, l.workers)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	docs := uploadCorpus(t, o, 120, 77, servers...)

	// Delete every third document from each server.
	deleted := make(map[string]bool)
	for i := 0; i < len(docs); i += 3 {
		deleted[docs[i].ID] = true
		for _, srv := range servers {
			if err := srv.Delete(docs[i].ID); err != nil {
				t.Fatalf("Delete(%s): %v", docs[i].ID, err)
			}
		}
	}

	// Survivor-only reference server, never saw the deleted documents.
	ref, err := NewServerSharded(o.Params(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if deleted[d.ID] {
			continue
		}
		si, err := o.BuildIndex(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Upload(si, &EncryptedDocument{ID: d.ID, Ciphertext: []byte(d.ID), EncKey: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}

	u := newUserFor(t, o, "delete-prop")
	u.SeedQueryRNG(7)
	for qi := 0; qi < 6; qi++ {
		words := docs[qi*5].Keywords()[:1+qi%2]
		fetchTrapdoors(t, o, u, words)
		q, err := u.BuildQuery(words)
		if err != nil {
			t.Fatal(err)
		}
		want := searchReference(t, ref, q, 0)
		for li, srv := range servers {
			got, err := srv.SearchTop(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, fmt.Sprintf("layout %d, query %d", li, qi), got, want)
			for _, m := range got {
				if deleted[m.DocID] {
					t.Fatalf("layout %d: deleted document %s returned by search", li, m.DocID)
				}
			}
		}
	}

	for li, srv := range servers {
		if got, want := srv.NumDocuments(), len(docs)-len(deleted); got != want {
			t.Fatalf("layout %d: NumDocuments = %d, want %d", li, got, want)
		}
		for id := range deleted {
			if _, err := srv.Fetch(id); !errors.Is(err, ErrNotFound) {
				t.Fatalf("layout %d: Fetch(%s) after delete = %v, want ErrNotFound", li, id, err)
			}
		}
		for _, id := range srv.DocumentIDs() {
			if deleted[id] {
				t.Fatalf("layout %d: deleted document %s still listed", li, id)
			}
		}
	}
}

func TestDeleteUnknownDocument(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServer(o.Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Delete("never-uploaded"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of unknown ID = %v, want ErrNotFound", err)
	}
}

// A deleted ID can be re-uploaded; it re-enters the store as a new document
// (fetchable, searchable, at the end of the upload order).
func TestDeleteThenReupload(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	docs := uploadCorpus(t, o, 20, 99, srv)
	victim := docs[4]
	if err := srv.Delete(victim.ID); err != nil {
		t.Fatal(err)
	}
	si, err := o.BuildIndex(victim)
	if err != nil {
		t.Fatal(err)
	}
	body := &EncryptedDocument{ID: victim.ID, Ciphertext: []byte("take two"), EncKey: []byte{2}}
	if err := srv.Upload(si, body); err != nil {
		t.Fatalf("re-upload after delete: %v", err)
	}
	if got, err := srv.Fetch(victim.ID); err != nil || string(got.Ciphertext) != "take two" {
		t.Fatalf("Fetch after re-upload = %v, %v", got, err)
	}
	ids := srv.DocumentIDs()
	if ids[len(ids)-1] != victim.ID {
		t.Fatalf("re-uploaded document should be last in upload order, got %v", ids)
	}
	if srv.NumDocuments() != len(docs) {
		t.Fatalf("NumDocuments = %d, want %d", srv.NumDocuments(), len(docs))
	}
}

// Emptying the store by deletion leaves a server indistinguishable from a
// fresh one, and the freed arena capacity is released.
func TestDeleteEverything(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	docs := uploadCorpus(t, o, 200, 5, srv)
	for _, d := range docs {
		if err := srv.Delete(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.NumDocuments(); n != 0 {
		t.Fatalf("NumDocuments = %d after deleting everything", n)
	}
	for _, sh := range srv.shards {
		for l, level := range sh.cols {
			for w, col := range level {
				if len(col) != 0 {
					t.Fatalf("level-%d column %d still holds %d words", l+1, w, len(col))
				}
				if cap(col) >= 64 {
					t.Fatalf("level-%d column %d capacity %d not released", l+1, w, cap(col))
				}
			}
		}
	}
	u := newUserFor(t, o, "delete-all")
	words := docs[0].Keywords()[:1]
	fetchTrapdoors(t, o, u, words)
	q, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.SearchTop(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty server returned %d matches", len(res))
	}
}
