// Property test for the scatter-gather cluster: across randomized corpora,
// partition counts, ranking depths and τ-cuts, a partitioned deployment must
// answer searches byte-identically to a single node holding the whole corpus
// — matches, ranks and the binary-comparison cost accounting all
// included. The comparison runs at the wire layer (the exact request/response
// structs the daemons gob-encode), driving the same MergeWire the fat client
// uses.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"mkse/internal/bitindex"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/harness"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/service"
)

// propertyOwner builds one data owner per ranking-depth configuration; key
// generation dominates test time, so trials share owners and randomize
// everything else (corpus, partition count, τ, queries).
func propertyOwner(t *testing.T, levels rank.Levels, seed int64) *core.Owner {
	t.Helper()
	p := core.DefaultParams().WithLevels(levels)
	p.Bins = 64
	owner, err := core.NewOwnerDeterministic(p, seed, seed+0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	return owner
}

// buildQuery is the user's query construction without per-user keys: AND the
// genuine trapdoors with a random V-subset of the enrollment decoys.
func buildQuery(owner *core.Owner, rts []*bitindex.Vector, rng *rand.Rand, words []string) []byte {
	p := owner.Params()
	q := bitindex.NewOnes(p.R)
	for _, w := range words {
		q.AndInto(owner.Trapdoor(w))
	}
	for _, i := range rng.Perm(p.U)[:p.V] {
		q.AndInto(rts[i])
	}
	b, err := q.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScatterGatherByteIdentical is the core correctness property: 100+
// randomized trials, each comparing a P-partition deployment's merged search
// results — and their total binary-comparison cost — against a single
// reference server holding the identical corpus.
func TestScatterGatherByteIdentical(t *testing.T) {
	configs := []rank.Levels{{1}, {1, 5, 10}, {1, 3, 5, 10, 15}}
	const trialsPerConfig = 35 // 105 trials total
	for ci, levels := range configs {
		owner := propertyOwner(t, levels, int64(1000+ci))
		rts := owner.RandomTrapdoors()
		params := owner.Params()
		rng := rand.New(rand.NewSource(int64(40 + ci)))
		for trial := 0; trial < trialsPerConfig; trial++ {
			partitions := []int{1, 2, 3, 5}[rng.Intn(4)]
			n := 20 + rng.Intn(61)
			tau := rng.Intn(8)
			name := fmt.Sprintf("eta%d/trial%02d-P%d-n%d-tau%d", len(levels), trial, partitions, n, tau)

			docs, err := corpus.Generate(corpus.Config{
				NumDocs: n, KeywordsPerDoc: 10, Dictionary: corpus.Dictionary(150),
				MaxTermFreq: 15, Seed: rng.Int63(),
			})
			if err != nil {
				t.Fatal(err)
			}
			indices, err := owner.BuildIndexes(docs, 0)
			if err != nil {
				t.Fatal(err)
			}

			ref, err := core.NewServer(params)
			if err != nil {
				t.Fatal(err)
			}
			refSvc := &service.CloudService{Server: ref}
			servers := make([]*core.Server, partitions)
			svcs := make([]*service.CloudService, partitions)
			for i := range servers {
				if servers[i], err = core.NewServer(params); err != nil {
					t.Fatal(err)
				}
				svcs[i] = &service.CloudService{Server: servers[i], Partition: i, Partitions: partitions}
			}
			m := cluster.Map{Partitions: partitions}
			payload := []byte("ciphertext")
			for i, doc := range docs {
				enc := &core.EncryptedDocument{ID: doc.ID, Ciphertext: payload, EncKey: payload}
				if err := ref.Upload(indices[i], enc); err != nil {
					t.Fatal(err)
				}
				if err := servers[m.Owner(doc.ID)].Upload(indices[i], enc); err != nil {
					t.Fatal(err)
				}
			}

			queries := make([][]byte, 3)
			for qi := range queries {
				kw := docs[rng.Intn(n)].Keywords()
				queries[qi] = buildQuery(owner, rts, rng, kw[:1+rng.Intn(2)])
			}

			for qi, q := range queries {
				refBefore := ref.Costs.BinaryComparisons.Load()
				want, err := refSvc.SearchWire(&protocol.SearchRequest{Query: q, TopK: tau})
				if err != nil {
					t.Fatal(err)
				}
				refCost := ref.Costs.BinaryComparisons.Load() - refBefore

				lists := make([][]protocol.MatchWire, partitions)
				var partCost int64
				for pi, svc := range svcs {
					before := servers[pi].Costs.BinaryComparisons.Load()
					resp, err := svc.SearchWire(&protocol.SearchRequest{Query: q, TopK: tau})
					if err != nil {
						t.Fatal(err)
					}
					partCost += servers[pi].Costs.BinaryComparisons.Load() - before
					lists[pi] = resp.Matches
				}
				merged := cluster.MergeWire(lists, tau)
				if got, wantB := gobBytes(t, merged), gobBytes(t, want.Matches); !bytes.Equal(got, wantB) {
					t.Fatalf("%s query %d: merged wire bytes diverge from single-node scan\n got  %d matches\n want %d matches",
						name, qi, len(merged), len(want.Matches))
				}
				if partCost != refCost {
					t.Fatalf("%s query %d: partitions did %d binary comparisons, single node %d — the scan is not work-preserving",
						name, qi, partCost, refCost)
				}
			}

			// The batch path must merge per-query exactly the same way.
			wantBatch, err := refSvc.SearchBatchWire(context.Background(), &protocol.SearchBatchRequest{Queries: queries, TopK: tau})
			if err != nil {
				t.Fatal(err)
			}
			partBatches := make([]*protocol.SearchBatchResponse, partitions)
			for pi, svc := range svcs {
				if partBatches[pi], err = svc.SearchBatchWire(context.Background(), &protocol.SearchBatchRequest{Queries: queries, TopK: tau}); err != nil {
					t.Fatal(err)
				}
			}
			for qi := range queries {
				lists := make([][]protocol.MatchWire, partitions)
				for pi := range partBatches {
					lists[pi] = partBatches[pi].Results[qi]
				}
				merged := cluster.MergeWire(lists, tau)
				if got, wantB := gobBytes(t, merged), gobBytes(t, wantBatch.Results[qi]); !bytes.Equal(got, wantB) {
					t.Fatalf("%s batch query %d: merged wire bytes diverge from single-node batch", name, qi)
				}
			}
		}
	}
}

// TestFatClientInvariantsOverTCP drives the real fat client through the
// harness: queries are randomized per client (each ANDs its own decoy
// subset), so two clients' results are not byte-comparable — instead this
// asserts the invariants the merge guarantees regardless of decoys: global
// (rank desc, docID asc) order, the τ-cut bound, routing of mutations, and
// that a document's genuine keywords find it.
func TestFatClientInvariantsOverTCP(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 77)
	params := owner.Params()
	for _, partitions := range []int{2, 3} {
		clu, err := harness.StartCluster(params, partitions, harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer clu.Close()

		docs, err := corpus.Generate(corpus.Config{
			NumDocs: 30, KeywordsPerDoc: 10, Dictionary: corpus.Dictionary(150),
			MaxTermFreq: 15, ContentWords: 10, Seed: int64(500 + partitions),
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
		if err := service.UploadAllCluster(clu.Config(), items); err != nil {
			t.Fatal(err)
		}

		ol, oaddr, err := harness.StartOwner(owner)
		if err != nil {
			t.Fatal(err)
		}
		defer ol.Close()
		client, err := service.DialCluster(fmt.Sprintf("prop-%d", partitions), oaddr, clu.Config())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		const tau = 7
		target := docs[4]
		matches, err := client.Search(target.Keywords()[:2], tau)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 || len(matches) > tau {
			t.Fatalf("P=%d: %d matches outside (0, τ=%d]", partitions, len(matches), tau)
		}
		found := false
		for i, mt := range matches {
			if mt.DocID == target.ID {
				found = true
			}
			if i > 0 && (mt.Rank > matches[i-1].Rank ||
				(mt.Rank == matches[i-1].Rank && mt.DocID < matches[i-1].DocID)) {
				t.Fatalf("P=%d: merged results out of global order at %d: %+v", partitions, i, matches)
			}
		}
		if !found {
			t.Errorf("P=%d: target %s missing from its own keywords' results", partitions, target.ID)
		}

		// A routed delete removes the document from exactly its owner.
		victim := docs[7].ID
		before := clu.Primaries[clu.Config().Map().Owner(victim)].Svc.Server.NumDocuments()
		if err := client.Delete(victim); err != nil {
			t.Fatal(err)
		}
		after := clu.Primaries[clu.Config().Map().Owner(victim)].Svc.Server.NumDocuments()
		if after != before-1 {
			t.Errorf("P=%d: owning partition went %d -> %d documents after delete, want -1", partitions, before, after)
		}
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.NumDocuments != len(docs)-1 || st.Partitions != partitions {
			t.Errorf("P=%d: aggregate stats %d docs/%d partitions, want %d/%d",
				partitions, st.NumDocuments, st.Partitions, len(docs)-1, partitions)
		}
	}
}
