// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (DESIGN.md §3 maps each to its experiment). Timing-oriented
// artifacts (Figure 4, the Cao comparison) are proper testing.B loops over
// the measured operation; distribution/accuracy artifacts (Figure 2/3,
// tables, ranking) benchmark one full experiment regeneration.
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkFig4b -benchmem
//
// Owners are built with NewOwnerDeterministic so index and query material —
// and therefore match counts and the work a search does — are identical
// across processes; numbers from different runs are directly comparable.
package mkse

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"mkse/internal/baseline/caomrse"
	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/experiments"
	"mkse/internal/rank"
)

// ---------------------------------------------------------------------------
// Figure 4(a) — index construction time (per document, by rank levels)
// ---------------------------------------------------------------------------

// BenchmarkIndexConstruction measures the owner's per-document index build
// with the paper's 20 genuine + 60 random keywords, for η = 1 (no ranking),
// 3 and 5 — the three series of Figure 4(a). Multiply by the corpus size for
// the paper's totals (e.g. ×10000 for the largest point).
func BenchmarkIndexConstruction(b *testing.B) {
	dict := corpus.Dictionary(4000)
	for _, eta := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("levels=%d", eta), func(b *testing.B) {
			p := core.DefaultParams()
			p.Bins = 64
			p.Levels = rank.DefaultLevels(eta, 15)
			owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
			if err != nil {
				b.Fatal(err)
			}
			docs, err := corpus.Generate(corpus.Config{
				NumDocs: 256, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := owner.BuildIndex(docs[i%len(docs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 4(b) — search time (per query, by corpus size and rank levels)
// ---------------------------------------------------------------------------

// BenchmarkSearch measures one ranked query over stored indices — Figure
// 4(b)'s series. The paper reports ≈1.5 ms over 6000 documents (2012 Java).
func BenchmarkSearch(b *testing.B) {
	dict := corpus.Dictionary(4000)
	for _, eta := range []int{1, 3, 5} {
		for _, size := range []int{2000, 6000, 10000} {
			b.Run(fmt.Sprintf("levels=%d/docs=%d", eta, size), func(b *testing.B) {
				p := core.DefaultParams()
				p.Bins = 64
				p.Levels = rank.DefaultLevels(eta, 15)
				owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
				if err != nil {
					b.Fatal(err)
				}
				// One shard/worker: this benchmark replicates the paper's
				// sequential scan; bench/ (core.searchtop_us) times the layouts.
				server, err := core.NewServerSharded(p, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				docs, err := corpus.Generate(corpus.Config{
					NumDocs: size, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range docs {
					si, err := owner.BuildIndex(d)
					if err != nil {
						b.Fatal(err)
					}
					if err := server.Upload(si, &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
						b.Fatal(err)
					}
				}
				q := queryFor(b, owner, docs[0].Keywords()[:2])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := server.SearchTop(q, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// queryFor builds a randomized query as a user would, via owner trapdoors.
func queryFor(b *testing.B, owner *core.Owner, words []string) *bitindex.Vector {
	b.Helper()
	p := owner.Params()
	q := bitindex.NewOnes(p.R)
	for _, w := range words {
		q.AndInto(owner.Trapdoor(w))
	}
	for i, rt := range owner.RandomTrapdoors() {
		if i >= p.V {
			break
		}
		q.AndInto(rt)
	}
	return q
}

// ---------------------------------------------------------------------------
// Section 8.1 — MKS vs Cao et al. MRSE_I
// ---------------------------------------------------------------------------

// BenchmarkVsCaoIndexConstruction sets the two schemes' per-document index
// generation side by side (paper: 60 s vs 4500 s for 6000 documents). The
// MRSE cost is O(n²) in the dictionary size; n = 1000 here keeps the run
// short — the paper's n in the thousands widens the gap further.
func BenchmarkVsCaoIndexConstruction(b *testing.B) {
	dict := corpus.Dictionary(1000)
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 64, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mks", func(b *testing.B) {
		p := core.DefaultParams()
		p.Bins = 64
		p.Levels = rank.DefaultLevels(5, 15)
		owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := owner.BuildIndex(docs[i%len(docs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mrse", func(b *testing.B) {
		scheme, err := caomrse.New(dict, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scheme.BuildIndex(docs[i%len(docs)])
		}
	})
}

// BenchmarkVsCaoSearch sets one full query over 1000 stored documents side
// by side (paper: 1.5 ms vs 600 ms over 6000 documents).
func BenchmarkVsCaoSearch(b *testing.B) {
	dict := corpus.Dictionary(1000)
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 1000, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	words := docs[0].Keywords()[:3]

	b.Run("mks", func(b *testing.B) {
		p := core.DefaultParams()
		p.Bins = 64
		p.Levels = rank.DefaultLevels(5, 15)
		owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
		if err != nil {
			b.Fatal(err)
		}
		// Sequential layout, like the MRSE baseline it is compared against.
		server, err := core.NewServerSharded(p, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range docs {
			si, err := owner.BuildIndex(d)
			if err != nil {
				b.Fatal(err)
			}
			if err := server.Upload(si, &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
				b.Fatal(err)
			}
		}
		q := queryFor(b, owner, words)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := server.SearchTop(q, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mrse", func(b *testing.B) {
		scheme, err := caomrse.New(dict, 1)
		if err != nil {
			b.Fatal(err)
		}
		indices := make([]*caomrse.Index, len(docs))
		for i, d := range docs {
			indices[i] = scheme.BuildIndex(d)
		}
		td, err := scheme.Trapdoor(words)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			caomrse.Search(indices, td, 10)
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 2 — query-distance histograms
// ---------------------------------------------------------------------------

// BenchmarkFig2a regenerates the Figure 2(a) histograms (2500 randomized
// queries + 2500 Hamming distances per iteration).
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2a(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2b regenerates the Figure 2(b) histograms.
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2b(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — false accept rates
// ---------------------------------------------------------------------------

// BenchmarkFig3 regenerates the Figure 3 FAR sweep (4 document-keyword
// counts × 4 query sizes over a 400-document corpus per iteration).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(400, 25, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 1 — communication costs
// ---------------------------------------------------------------------------

// BenchmarkTable1Protocol regenerates the Table 1 accounting and exercises
// the real wire encodings it models.
func BenchmarkTable1Protocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(3, 10, 2, 1<<20, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 2 — computation costs (plus the protocol's unit operations)
// ---------------------------------------------------------------------------

// BenchmarkTable2Flow runs the full instrumented protocol flow Table 2
// tabulates: trapdoor exchange, query, ranked search over 300 documents,
// blinded retrieval.
func BenchmarkTable2Flow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(300, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrapdoorGeneration isolates the user-side "1 hash" entry of
// Table 2: one keyword-index derivation (HMAC expansion + GF reduction).
func BenchmarkTrapdoorGeneration(b *testing.B) {
	p := core.DefaultParams()
	p.Bins = 64
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		owner.Trapdoor("confidential")
	}
}

// BenchmarkBlindDecryption isolates the Table 2 retrieval arithmetic: user
// blinding + owner exponentiation + unblinding.
func BenchmarkBlindDecryption(b *testing.B) {
	p := core.DefaultParams()
	p.Bins = 8
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	doc := &corpus.Document{ID: "d", TermFreqs: map[string]int{"k": 1}, Content: []byte("x")}
	enc, err := owner.EncryptDocument(doc)
	if err != nil {
		b.Fatal(err)
	}
	user, err := core.NewUser("bench", p, owner.PublicKey(), owner.RandomTrapdoors())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := user.DecryptDocument(enc, func(z *big.Int) (*big.Int, error) {
			return owner.BlindDecrypt(z)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Section 5 — ranking quality
// ---------------------------------------------------------------------------

// BenchmarkRankingQuality regenerates one trial of the Section 5 agreement
// study (1000 documents indexed and searched per iteration).
func BenchmarkRankingQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RankingQuality(1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Section 6 analytics & Section 4.1 attack
// ---------------------------------------------------------------------------

// BenchmarkAnalytics regenerates the F(x) model-vs-simulation table.
func BenchmarkAnalytics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Analytics(50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBruteForceAttack runs the Section 4.1 dictionary attack against
// both the keyless baseline and MKS (3000-word dictionary per iteration).
func BenchmarkBruteForceAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BruteForceAttack(3000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Batched search — the one engine path bench/ has no row for
// ---------------------------------------------------------------------------

// benchServer builds a default-layout server holding size documents and a
// 16-query batch over them.
func benchServer(b *testing.B, size int) (*core.Server, []*bitindex.Vector) {
	b.Helper()
	p := core.DefaultParams()
	p.Bins = 64
	p.Levels = rank.DefaultLevels(3, 15)
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	server, err := core.NewServerSharded(p, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: size, KeywordsPerDoc: 20, Dictionary: corpus.Dictionary(4000),
		MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	indices, err := owner.BuildIndexes(docs, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i, d := range docs {
		if err := server.Upload(indices[i], &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
			b.Fatal(err)
		}
	}
	batch := make([]*bitindex.Vector, 16)
	for i := range batch {
		batch[i] = queryFor(b, owner, docs[i*7%size].Keywords()[:2])
	}
	return server, batch
}

// BenchmarkSearchBatch compares a 16-query batch evaluated one Search at a
// time against a single SearchBatch pass over the same store.
func BenchmarkSearchBatch(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("docs=%d/sequential", size), func(b *testing.B) {
			server, batch := benchServer(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range batch {
					if _, err := server.SearchTop(q, 10); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("docs=%d/batch", size), func(b *testing.B) {
			server, batch := benchServer(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.SearchBatch(context.Background(), batch, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
