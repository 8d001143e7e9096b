package experiments

import (
	"math"
	"strings"
	"testing"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/costs"
	"mkse/internal/rank"
)

// Figure 2(a): with V=30 of U=60 random keywords, the same-query and
// different-query distance distributions must overlap heavily — the paper's
// claim is that the adversary "basically needs to make a random guess".
func TestFig2aDistributionsOverlap(t *testing.T) {
	res, err := Fig2a(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Different.N() != 1250 {
		t.Errorf("different-query distances: %d, want 1250", res.Different.N())
	}
	if res.Same.N() != 1250 {
		t.Errorf("same-query distances: %d, want 1250", res.Same.N())
	}
	// The model (analysis.ExpectedHamming) puts the two means ≈ 10% apart
	// with σ ≈ 10, i.e. substantial but not total overlap — the paper's
	// histograms show the same picture.
	if res.Overlap < 0.3 {
		t.Errorf("distribution overlap %.3f too low; randomization is not masking the search pattern", res.Overlap)
	}
	// Exact-process simulation gives a 15–20% mean gap (the paper's Eq. 5
	// model predicts ~10%; see EXPERIMENTS.md on the discrepancy).
	gap := math.Abs(res.Different.Mean() - res.Same.Mean())
	if gap/res.Different.Mean() > 0.3 {
		t.Errorf("mean distance gap %.1f%% too wide for the masking claim", 100*gap/res.Different.Mean())
	}
	// Distances concentrate in the paper's 100–200 band.
	if m := res.Different.Mean(); m < 100 || m > 200 {
		t.Errorf("mean different-query distance %.1f outside the paper's plotted band", m)
	}
	if s := res.Different.StdDev(); s > 40 {
		t.Errorf("different-query distances too dispersed: σ=%.1f", s)
	}
	if out := res.Format("Fig 2(a)"); !strings.Contains(out, "different qry") {
		t.Error("Format output malformed")
	}
}

// Figure 2(b): knowing the query holds 5 terms shifts the same-query
// distribution measurably below the different-query one (the paper reads
// ≈45% below 150 / ≈20% at 150 / ≈35% above, giving an adversary ~0.6
// confidence). We pin the qualitative separation: same-query mean strictly
// below different-query mean, but with substantial residual overlap.
func TestFig2bKnownTermCountSeparation(t *testing.T) {
	res, err := Fig2b(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Different.N() != 1000 || res.Same.N() != 1000 {
		t.Fatalf("sample sizes %d/%d, want 1000/1000", res.Different.N(), res.Same.N())
	}
	if res.Same.Mean() >= res.Different.Mean() {
		t.Errorf("same-query mean %.1f not below different-query mean %.1f",
			res.Same.Mean(), res.Different.Mean())
	}
	// Reproduction note (recorded in EXPERIMENTS.md): simulating the exact
	// V-of-U process yields MORE separation than the paper's Figure 2(b)
	// (our same-query mean ≈ 105 vs the paper's ≈ 150) because Equation 5
	// overestimates the same-query distance — shared random keywords
	// correlate the two indices more than the independence approximation
	// admits. The qualitative conclusion stands: the adversary gains real
	// advantage once the term count is known, so it must be kept secret.
	if res.Overlap < 0.05 {
		t.Errorf("overlap %.3f collapsed entirely; expected residual confusion", res.Overlap)
	}
}

// Figure 3: FAR grows with keywords per document and shrinks with keywords
// per query; at 10+60 keywords it is small, and it "rapidly increases after
// 40 keywords per document".
func TestFig3Shape(t *testing.T) {
	res, err := Fig3(400, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in document keywords for 2-keyword queries (allowing noise at
	// the low end where FAR ≈ 0).
	if far40, far10 := res.FAR(40, 2), res.FAR(10, 2); far40 <= far10 {
		t.Errorf("FAR(40kw) = %.3f not above FAR(10kw) = %.3f", far40, far10)
	}
	// More query keywords reduce FAR at 40 keywords/doc.
	if far2, far5 := res.FAR(40, 2), res.FAR(40, 5); far5 > far2 {
		t.Errorf("FAR with 5-kw query (%.3f) above 2-kw query (%.3f)", far5, far2)
	}
	// At 10+60 the rate is small (paper: ≈ 1–2%).
	if far := res.FAR(10, 2); far > 0.10 {
		t.Errorf("FAR at 10+60 kw/doc = %.3f, paper shows ≈ 0.01–0.02", far)
	}
	// At 40+60 with 2-keyword queries the rate is substantial (paper ≈ 18%).
	if far := res.FAR(40, 2); far < 0.02 {
		t.Errorf("FAR at 40+60 kw/doc = %.3f, paper shows a steep rise (≈ 0.18)", far)
	}
	if out := res.Format(); !strings.Contains(out, "10+60") {
		t.Error("Format output malformed")
	}
}

// Figure 4(a): build time grows linearly in the number of documents and
// with the number of rank levels.
func TestFig4aShape(t *testing.T) {
	sizes := []int{200, 400, 800}
	res, err := Fig4a(sizes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(sizes)*3 {
		t.Fatalf("%d points, want %d", len(res.Points), len(sizes)*3)
	}
	// Linearity: t(800) within [2x, 8x] of t(200) per configuration (wide
	// bounds; CI machines are noisy).
	for _, eta := range []int{1, 3, 5} {
		t200, t800 := res.Elapsed(200, eta), res.Elapsed(800, eta)
		if t800 < t200 {
			t.Errorf("η=%d: build time decreased with corpus size", eta)
		}
		ratio := float64(t800) / float64(t200)
		if ratio < 1.5 || ratio > 12 {
			t.Errorf("η=%d: 4x corpus changed time by %.1fx, expected ≈4x", eta, ratio)
		}
	}
	// Ranking overhead: with per-keyword HMACs computed once and shared
	// across levels, extra levels only add cheap AND folds, so η=5 is a few
	// percent slower at most (the paper's Java, recomputing per level, shows
	// a larger but still modest gap). Two wall-clock samples cannot show a
	// few percent on a shared host, so assert the mechanism on the owner's
	// operation counts at each point: the same HMACs at every η, and no
	// fewer folds as η grows.
	dict := corpus.Dictionary(4000)
	for _, n := range sizes {
		docs, err := fig4aCorpus(dict, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		var prev costs.Snapshot
		for i, eta := range []int{1, 3, 5} {
			owner, err := newExperimentOwner(rank.DefaultLevels(eta, 15), 4)
			if err != nil {
				t.Fatal(err)
			}
			before := owner.Costs.Snapshot()
			for _, d := range docs {
				if _, err := owner.BuildIndex(d); err != nil {
					t.Fatal(err)
				}
			}
			c := owner.Costs.Snapshot().Sub(before)
			if i > 0 && c.HashOps != prev.HashOps {
				t.Errorf("n=%d: η=%d computes %d keyword HMACs, the level below %d; levels must share them", n, eta, c.HashOps, prev.HashOps)
			}
			if c.BitwiseProducts < prev.BitwiseProducts {
				t.Errorf("n=%d: η=%d folds %d products, fewer than the level below (%d)", n, eta, c.BitwiseProducts, prev.BitwiseProducts)
			}
			prev = c
		}
	}
	if out := res.Format(); !strings.Contains(out, "Figure 4(a)") {
		t.Error("Format output malformed")
	}
}

// Figure 4(b): per-query search time is far below the paper's 3 ms ceiling
// at these sizes and grows with corpus size.
func TestFig4bShape(t *testing.T) {
	sizes := []int{500, 2000}
	res, err := Fig4b(sizes, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, eta := range []int{1, 3, 5} {
		small, large := res.Elapsed(500, eta), res.Elapsed(2000, eta)
		if small == 0 || large == 0 {
			t.Fatalf("missing measurements for η=%d", eta)
		}
		if large < small {
			t.Logf("note: η=%d search time not monotone (%v vs %v) — timer noise", eta, small, large)
		}
		// The paper reports ≤ 3 ms for 10000 docs in 2012 Java; our 2000-doc
		// Go search must be well under that.
		if large > 3*1e6 {
			t.Errorf("η=%d: search over 2000 docs took %v, expected ≪ 3ms", eta, large)
		}
	}
}

func TestTable1MatchesAnalytic(t *testing.T) {
	res, err := Table1(3, 10, 2, 4096, 6)
	if err != nil {
		t.Fatal(err)
	}
	r := int64(core.DefaultParams().R)
	for _, row := range res.Rows {
		want := row.AnalyticBits
		switch row.Step {
		case "owner/trapdoor":
			// We ship γ·128-bit keys where the paper books one logN-bit
			// encrypted payload; both are O(γ) small — skip exact equality.
			continue
		case "server/search":
			// The paper books α·r bits of metadata the deployed reply does
			// not carry: no user consumes it, and it holds the very bits the
			// server already tested.
			want -= int64(res.Alpha) * r
		}
		if row.MeasuredBits != want {
			t.Errorf("%s: measured %d bits, want %d (analytic %d)", row.Step, row.MeasuredBits, want, row.AnalyticBits)
		}
	}
	if out := res.Format(); !strings.Contains(out, "Table 1") {
		t.Error("Format output malformed")
	}
}

// Table 2: the measured operation counts must stay within the paper's
// symbolic budget.
func TestTable2WithinPaperBudget(t *testing.T) {
	res, err := Table2(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Server: at most σ + η·α comparisons.
	maxCmp := int64(res.NumDocs + res.Eta*res.MatchedDocs)
	if res.Server.BinaryComparisons > maxCmp {
		t.Errorf("server comparisons %d exceed σ+ηα = %d", res.Server.BinaryComparisons, maxCmp)
	}
	if res.Server.BinaryComparisons < int64(res.NumDocs) {
		t.Errorf("server comparisons %d below σ = %d", res.Server.BinaryComparisons, res.NumDocs)
	}
	// User: 2 hash ops (one per search term), 1 signature, 1 modexp + 2
	// modmul for blinding, 1 symmetric decryption.
	if res.User.HashOps != 2 {
		t.Errorf("user hash ops = %d, want 2", res.User.HashOps)
	}
	if res.User.SymDecrypts != 1 {
		t.Errorf("user sym decrypts = %d, want 1", res.User.SymDecrypts)
	}
	if res.User.ModExps < 1 || res.User.ModExps > 3 {
		t.Errorf("user modexps = %d, paper budget is 3", res.User.ModExps)
	}
	// Owner online phase: 1 verification + 1 blind decryption modexp.
	if res.Owner.ModExps != 1 {
		t.Errorf("owner modexps = %d, want 1 (blind decrypt)", res.Owner.ModExps)
	}
	if res.Owner.Verifications != 1 {
		t.Errorf("owner verifications = %d, want 1", res.Owner.Verifications)
	}
	if out := res.Format(); !strings.Contains(out, "Table 2") {
		t.Error("Format output malformed")
	}
}

// Section 5: the level ranking agrees with Equation 4 within the paper's
// reported bands (40% / 100% / 80%). Bands are widened for trial noise at a
// modest trial count.
func TestRankingQualityBands(t *testing.T) {
	if testing.Short() {
		t.Skip("ranking study indexes 1000 docs per trial")
	}
	res, err := RankingQuality(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopInTop1Pct < 15 {
		t.Errorf("top-1 agreement %.1f%%, paper reports ≈40%%", res.TopInTop1Pct)
	}
	if res.TopInTop3Pct < 75 {
		t.Errorf("top-3 agreement %.1f%%, paper reports 100%%", res.TopInTop3Pct)
	}
	if res.AtLeast4Of5Pct < 50 {
		t.Errorf("≥4-of-top-5 agreement %.1f%%, paper reports ≈80%%", res.AtLeast4Of5Pct)
	}
	if out := res.Format(); !strings.Contains(out, "Section 5") {
		t.Error("Format output malformed")
	}
}

// Section 8.1: MKS must beat MRSE on both index construction and search by
// a widening margin — the paper's headline "several orders of magnitude".
func TestCaoComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("MRSE key generation is O(n^3)")
	}
	// The gap scales with the MRSE dictionary size n (its costs are O(n²)
	// per index and O(n) per score; MKS is O(1) in n). Even at the modest
	// n = 800 the separation is unambiguous; the paper's n ≈ "several
	// thousands" gives the orders-of-magnitude headline.
	res, err := CaoComparison([]int{100, 300}, 800, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.BuildSpeedup < 2 {
			t.Errorf("%d docs: MKS build only %.1fx faster than MRSE (dict=800)", p.NumDocs, p.BuildSpeedup)
		}
		if p.SearchSpeedup < 5 {
			t.Errorf("%d docs: MKS search only %.1fx faster than MRSE (dict=800)", p.NumDocs, p.SearchSpeedup)
		}
	}
	if out := res.Format(); !strings.Contains(out, "MRSE") {
		t.Error("Format output malformed")
	}
}

// Section 6 analytics: simulated zero counts track F(x) closely.
func TestAnalyticsModelMatchesSimulation(t *testing.T) {
	res, err := Analytics(150, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		tol := 0.15*row.FModel + 1.5
		if math.Abs(row.FModel-row.FSimulated) > tol {
			t.Errorf("x=%d: F model %.2f vs simulated %.2f (tol %.2f)", row.X, row.FModel, row.FSimulated, tol)
		}
	}
	if res.EOModel != 15 {
		t.Errorf("EO = %v, want 15", res.EOModel)
	}
	if res.DeltaSameModel >= res.DeltaDiffModel {
		t.Error("model says same-keyword queries are farther apart than different ones")
	}
	if out := res.Format(); !strings.Contains(out, "Section 6") {
		t.Error("Format output malformed")
	}
}

// Section 6's adversary: linking confidence must be near-random with the
// term count hidden and distinctly better once it is known — bracketing the
// paper's ≈0.6 claim from both sides.
func TestAdversaryConfidence(t *testing.T) {
	res, err := AdversaryConfidence(400, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnknownCount < 0.5 || res.KnownCount < 0.5 {
		t.Fatalf("optimal classifier below chance: %+v", res)
	}
	if res.KnownCount <= res.UnknownCount {
		t.Errorf("knowing the term count did not help the adversary: %.3f vs %.3f",
			res.KnownCount, res.UnknownCount)
	}
	if res.KnownCount < 0.60 {
		t.Errorf("known-count confidence %.3f below the paper's 0.6 reading", res.KnownCount)
	}
	if res.UnknownCount > 0.90 {
		t.Errorf("unknown-count confidence %.3f — randomization not masking", res.UnknownCount)
	}
	if !strings.Contains(res.Format(), "adversary confidence") {
		t.Error("Format output malformed")
	}
}

func TestTheorem3Bound(t *testing.T) {
	res, err := Theorem3()
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundBits < 9 {
		t.Errorf("forgery bound 2^-%.1f weaker than the paper's 2^-9", res.BoundBits)
	}
	if !strings.Contains(res.Format(), "Theorem 3") {
		t.Error("Format output malformed")
	}
}

// Section 4.1: the attack succeeds against the keyless baseline and fails
// against MKS.
func TestBruteForceAttackContrast(t *testing.T) {
	res, err := BruteForceAttack(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !res.KeylessRecovered {
		t.Error("attack failed against the keyless scheme — it should succeed")
	}
	if res.MKSRecovered {
		t.Error("attack succeeded against MKS — secret keys are not protecting the index")
	}
	if res.PairBits < 27 || res.PairBits > 29 {
		t.Errorf("pair search space 2^%.1f, paper estimates ≈2^28", res.PairBits)
	}
	if !strings.Contains(res.Format(), "brute-force") {
		t.Error("Format output malformed")
	}
}
