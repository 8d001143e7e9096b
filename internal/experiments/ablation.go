package experiments

import (
	"fmt"
	"strings"

	"mkse/internal/analysis"
	"mkse/internal/bins"
	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/corpus"
)

// ---------------------------------------------------------------------------
// Ablation: reduction digit width d (Section 6.1)
// ---------------------------------------------------------------------------
//
// "If more keywords are required per document, false accept rates can be
// reduced by increasing the reduction parameter d while keeping the final
// index size r constant (i.e. choosing a longer HMAC function). Although
// computing longer HMAC functions will also increase the cost of the index
// generation, since the index size r is constant the communication cost and
// storage requirements do not increase."

// DSweepPoint is one digit-width measurement.
type DSweepPoint struct {
	D            int
	HMACBytes    int     // l/8 = r·d/8 — the index-generation cost knob
	MeasuredFAR  float64 // empirical false-accept rate at the stress point
	AnalyticFAR  float64 // the analysis package's per-document estimate
	ZerosPerWord float64 // measured F(1) = r/2^d
}

// DSweepResult sweeps d at constant r.
type DSweepResult struct {
	R       int
	DocKw   int // keywords per document at the stress point (40 in Fig. 3)
	QueryKw int
	Points  []DSweepPoint
}

// DSweep quantifies the Section 6.1 trade-off: at fixed r = 448 and the
// Figure 3 stress point (40 genuine + U random keywords per document,
// 2-keyword queries), larger d shrinks the false accept rate at the price of
// a proportionally longer HMAC per keyword.
func DSweep(numDocs, queriesPerCell int, seed int64) (*DSweepResult, error) {
	const docKw, queryKw = 40, 2
	res := &DSweepResult{R: 448, DocKw: docKw, QueryKw: queryKw}
	dict := corpus.Dictionary(4000)
	topic := []string{"topic-kw-a", "topic-kw-b", "topic-kw-c", "topic-kw-d", "topic-kw-e"}
	for _, d := range []int{4, 6, 8, 10} {
		p := core.DefaultParams()
		p.Bins = 64
		p.D = d
		model, err := analysis.NewModel(p.R, d)
		if err != nil {
			return nil, err
		}
		matches, falses := 0, 0
		zeroSum, zeroN := 0, 0
		for rep := 0; rep < fig3Replicas; rep++ {
			repSeed := seed + int64(d)*100 + int64(rep)
			owner, err := core.NewOwnerDeterministic(p, repSeed, repSeed+0x5eed)
			if err != nil {
				return nil, err
			}
			f := newQueryFactory(owner, repSeed+1)
			docs, err := corpus.Generate(corpus.Config{
				NumDocs: numDocs, KeywordsPerDoc: docKw, Dictionary: dict,
				MaxTermFreq: 15, Seed: repSeed,
			})
			if err != nil {
				return nil, err
			}
			for i, doc := range docs {
				if i%5 < 2 {
					evict := len(topic)
					for w := range doc.TermFreqs {
						if evict == 0 {
							break
						}
						delete(doc.TermFreqs, w)
						evict--
					}
					for _, tw := range topic {
						doc.TermFreqs[tw] = 1 + f.rng.Intn(15)
					}
				}
			}
			indices := make([]*bitindex.Vector, len(docs))
			for i, doc := range docs {
				si, err := owner.BuildIndex(doc)
				if err != nil {
					return nil, err
				}
				indices[i] = si.Levels[0]
			}
			// Measured F(1) from a handful of fresh trapdoors.
			for i := 0; i < 25; i++ {
				zeroSum += owner.Trapdoor(dict[f.rng.Intn(len(dict))]).ZerosCount()
				zeroN++
			}
			for qi := 0; qi < queriesPerCell; qi++ {
				perm := f.rng.Perm(len(topic))
				words := []string{topic[perm[0]], topic[perm[1]]}
				q := f.build(words)
				for di, idx := range indices {
					if !idx.Matches(q) {
						continue
					}
					matches++
					if _, ok := docs[di].TermFreqs[words[0]]; !ok {
						falses++
						continue
					}
					if _, ok := docs[di].TermFreqs[words[1]]; !ok {
						falses++
					}
				}
			}
		}
		pt := DSweepPoint{
			D:            d,
			HMACBytes:    p.HMACBytes(),
			AnalyticFAR:  model.FalseAcceptProbability(docKw, p.U, queryKw),
			ZerosPerWord: float64(zeroSum) / float64(zeroN),
		}
		if matches > 0 {
			pt.MeasuredFAR = float64(falses) / float64(matches)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Format renders the d-sweep.
func (r *DSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation §6.1 — digit width d at constant r=%d (%d+U kw/doc, %d-kw queries)\n", r.R, r.DocKw, r.QueryKw)
	b.WriteString("  d   HMAC bytes   F(1)=r/2^d   measured FAR   analytic per-doc FAP\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%3d %12d %12.2f %13.2f%% %20.2e\n",
			p.D, p.HMACBytes, p.ZerosPerWord, 100*p.MeasuredFAR, p.AnalyticFAR)
	}
	b.WriteString("larger d → longer HMAC per keyword, same r-bit index on the wire, lower FAR —\n")
	b.WriteString("until F(n) = r·(1−(1−2^−d)^n) drops below ~1 (d=10 at r=448), where queries run\n")
	b.WriteString("out of zeros and selectivity collapses; the paper's §6.1 advice holds for d ≤ 8\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation: decoy count V at U = 2V (Section 6)
// ---------------------------------------------------------------------------

// VSweepPoint is one randomization-strength measurement.
type VSweepPoint struct {
	V             int
	U             int
	Overlap       float64 // same-vs-different distance distribution overlap
	QueryZeroFrac float64 // fraction of index bits zeroed by an average query
}

// VSweepResult sweeps the number of decoy keywords.
type VSweepResult struct {
	Points []VSweepPoint
}

// VSweep quantifies the query-randomization dial: V = 0 (no decoys —
// deterministic queries, search pattern fully exposed) up to the paper's
// V = 30, measuring how close the same-terms and different-terms distance
// distributions get (overlap coefficient → 1 means the search pattern is
// hidden) and how much of the index each query zeroes (the false-accept
// cost of decoys).
func VSweep(pairs int, seed int64) (*VSweepResult, error) {
	res := &VSweepResult{}
	dict := corpus.Dictionary(4000)
	for _, v := range []int{0, 5, 10, 15, 20, 30, 45} {
		p := core.DefaultParams()
		p.Bins = 64
		p.U = 2 * v
		p.V = v
		if v == 0 {
			p.U = 0
		}
		owner, err := core.NewOwnerDeterministic(p, seed+int64(v), seed+int64(v)+0x5eed)
		if err != nil {
			return nil, err
		}
		f := newQueryFactory(owner, seed+int64(v)+1)
		pick := func(n int) []string {
			out := make([]string, n)
			for i, idx := range f.rng.Perm(len(dict))[:n] {
				out[i] = dict[idx]
			}
			return out
		}
		hd := newHistogram(0, 448, 16)
		hs := newHistogram(0, 448, 16)
		zeroSum := 0
		for i := 0; i < pairs; i++ {
			n := 2 + i%5
			wordsA := pick(n)
			wordsB := pick(n)
			qa1 := f.build(wordsA)
			qa2 := f.build(wordsA)
			qb := f.build(wordsB)
			hs.add(qa1.Hamming(qa2))
			hd.add(qa1.Hamming(qb))
			zeroSum += qa1.ZerosCount()
		}
		res.Points = append(res.Points, VSweepPoint{
			V:             v,
			U:             p.U,
			Overlap:       overlapCoefficient(hd, hs),
			QueryZeroFrac: float64(zeroSum) / float64(pairs) / float64(p.R),
		})
	}
	return res, nil
}

// Format renders the V-sweep.
func (r *VSweepResult) Format() string {
	var b strings.Builder
	b.WriteString("Ablation §6 — decoy keywords V (U = 2V): search-pattern hiding vs index load\n")
	b.WriteString("  V    U   same/diff overlap   query zero fraction\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%3d %4d %19.3f %21.3f\n", p.V, p.U, p.Overlap, p.QueryZeroFrac)
	}
	b.WriteString("V=0: identical queries are byte-identical (overlap of same-distance spike at 0)\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation: bin count δ (Section 4.2)
// ---------------------------------------------------------------------------

// BinsSweepPoint is one bin-count measurement.
type BinsSweepPoint struct {
	Bins          int
	MinOccupancy  int     // ϖ — smallest bin (must stay ≥ the security floor)
	MeanOccupancy float64 // dictionary/δ
	ExposedFrac   float64 // fraction of the dictionary unlocked by a 3-keyword trapdoor request
}

// BinsSweepResult sweeps δ over a fixed dictionary.
type BinsSweepResult struct {
	DictSize int
	Points   []BinsSweepPoint
}

// BinsSweep quantifies the Section 4.2 trade-off in choosing δ: more bins
// mean each trapdoor request exposes fewer foreign keywords to the user
// (smaller ExposedFrac) but thinner obfuscation against the owner (smaller
// MinOccupancy ϖ — the owner learns more from *which* bin was requested).
func BinsSweep(dictSize int, seed int64) (*BinsSweepResult, error) {
	dict := corpus.Dictionary(dictSize)
	res := &BinsSweepResult{DictSize: dictSize}
	for _, nBins := range []int{10, 50, 250, 1000, 5000} {
		min := bins.MinOccupancy(dict, nBins)
		pt := BinsSweepPoint{
			Bins:          nBins,
			MinOccupancy:  min,
			MeanOccupancy: float64(dictSize) / float64(nBins),
			// A γ-keyword request unlocks γ bins ≈ γ/δ of the dictionary
			// (ignoring collisions).
			ExposedFrac: 3.0 / float64(nBins),
		}
		if pt.ExposedFrac > 1 {
			pt.ExposedFrac = 1
		}
		res.Points = append(res.Points, pt)
	}
	_ = seed
	return res, nil
}

// Format renders the bins sweep.
func (r *BinsSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation §4.2 — bin count δ over a %d-word dictionary\n", r.DictSize)
	b.WriteString("   δ    min bin (ϖ)   mean bin   dictionary exposed by a 3-kw request\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%5d %13d %10.1f %38.4f\n", p.Bins, p.MinOccupancy, p.MeanOccupancy, p.ExposedFrac)
	}
	b.WriteString("small δ: strong obfuscation toward the owner, large key exposure toward users\n")
	return b.String()
}
