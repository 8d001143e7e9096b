// Command mkse-bench regenerates the tables and figures of the paper's
// evaluation (Örencik & Savaş, PAIS 2012). Each experiment prints the same
// rows/series the paper reports; EXPERIMENTS.md records a reference run.
// It does not time the system — bench/ does (bench/README.md); the one
// exception is the replication sweep, which has no bench/ row yet.
//
// Usage:
//
//	mkse-bench -exp all                 # everything at default scale
//	mkse-bench -exp fig3 -docs 1000     # one experiment, custom scale
//	mkse-bench -exp cao -dict 2000      # widen the MRSE gap
//
// Experiments: fig2a fig2b fig3 fig4a fig4b table1 table2 ranking cao
// analytic theorem3 attack confidence ablate-d ablate-v ablate-bins
// replication all. Any other name is an error.
package main

import (
	"flag"
	"fmt"
	"os"

	"mkse/internal/buildinfo"
	"mkse/internal/cliutil"
	"mkse/internal/experiments"
)

// expNames lists every value -exp accepts.
const expNames = "fig2a fig2b fig3 fig4a fig4b table1 table2 ranking cao analytic theorem3 attack confidence ablate-d ablate-v ablate-bins replication all"

func main() {
	var (
		version  = flag.Bool("version", false, "print version and exit")
		exp      = flag.String("exp", "all", "experiment to run ("+expNames+")")
		seed     = flag.Int64("seed", 2012, "experiment seed")
		docs     = flag.Int("docs", 400, "corpus size for fig3/table2")
		sizes    = flag.String("sizes", "2000,4000,6000,8000,10000", "comma-separated corpus sizes for fig4a/fig4b/cao/replication sweeps")
		queries  = flag.Int("queries", 50, "queries per measurement point")
		dict     = flag.Int("dict", 1000, "MRSE dictionary size for -exp cao (paper: several thousands)")
		trials   = flag.Int("trials", 25, "trials for -exp ranking")
		replicas = flag.Int("replicas", 2, "read replicas for -exp replication")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("mkse-bench"))
		return
	}

	sweep, err := cliutil.ParseInts(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkse-bench: %v\n", err)
		os.Exit(2)
	}

	ran := false
	run := func(name string, fn func() (fmt.Stringer, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkse-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	run("fig2a", func() (fmt.Stringer, error) {
		r, err := experiments.Fig2a(*seed)
		return titled{r, "Figure 2(a) — query distances, term count unknown"}, err
	})
	run("fig2b", func() (fmt.Stringer, error) {
		r, err := experiments.Fig2b(*seed)
		return titled{r, "Figure 2(b) — query distances, 5 terms known"}, err
	})
	run("fig3", func() (fmt.Stringer, error) {
		r, err := experiments.Fig3(*docs, *queries, *seed)
		return stringer{r}, err
	})
	run("fig4a", func() (fmt.Stringer, error) {
		r, err := experiments.Fig4a(sweep, *seed)
		return stringer{r}, err
	})
	run("fig4b", func() (fmt.Stringer, error) {
		r, err := experiments.Fig4b(sweep, *queries, *seed)
		return stringer{r}, err
	})
	run("table1", func() (fmt.Stringer, error) {
		r, err := experiments.Table1(3, 10, 2, 1<<20, *seed)
		return stringer{r}, err
	})
	run("table2", func() (fmt.Stringer, error) {
		r, err := experiments.Table2(*docs, *seed)
		return stringer{r}, err
	})
	run("ranking", func() (fmt.Stringer, error) {
		r, err := experiments.RankingQuality(*trials, *seed)
		return stringer{r}, err
	})
	run("cao", func() (fmt.Stringer, error) {
		// The full paper sweep at n=4000+ takes hours for MRSE — exactly the
		// paper's point. Scale sizes down for the comparison by default.
		caoSizes := sweep
		if *exp == "all" {
			caoSizes = []int{500, 1000, 2000}
		}
		r, err := experiments.CaoComparison(caoSizes, *dict, *queries, *seed)
		return stringer{r}, err
	})
	run("analytic", func() (fmt.Stringer, error) {
		r, err := experiments.Analytics(300, *seed)
		return stringer{r}, err
	})
	run("theorem3", func() (fmt.Stringer, error) {
		r, err := experiments.Theorem3()
		return stringer{r}, err
	})
	run("attack", func() (fmt.Stringer, error) {
		r, err := experiments.BruteForceAttack(25000, *seed)
		return stringer{r}, err
	})
	run("confidence", func() (fmt.Stringer, error) {
		r, err := experiments.AdversaryConfidence(500, *seed)
		return stringer{r}, err
	})
	run("ablate-d", func() (fmt.Stringer, error) {
		r, err := experiments.DSweep(*docs, *queries, *seed)
		return stringer{r}, err
	})
	run("ablate-v", func() (fmt.Stringer, error) {
		r, err := experiments.VSweep(500, *seed)
		return stringer{r}, err
	})
	run("ablate-bins", func() (fmt.Stringer, error) {
		r, err := experiments.BinsSweep(25000, *seed)
		return stringer{r}, err
	})
	run("replication", func() (fmt.Stringer, error) {
		repSizes := sweep
		if *exp == "all" {
			repSizes = []int{1000, 5000}
		}
		r, err := experiments.ReplicationSweep(repSizes, *replicas, *queries, *seed)
		return stringer{r}, err
	})
	if !ran {
		fmt.Fprintf(os.Stderr, "mkse-bench: unknown -exp %q (valid: %s)\n", *exp, expNames)
		os.Exit(2)
	}
}

// stringer adapts experiment results (which have Format() string) to
// fmt.Stringer.
type stringer struct{ r interface{ Format() string } }

func (s stringer) String() string { return s.r.Format() }

// titled adapts Fig2 results, whose Format takes a title.
type titled struct {
	r     interface{ Format(string) string }
	title string
}

func (t titled) String() string { return t.r.Format(t.title) }
