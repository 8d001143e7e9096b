package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"mkse/internal/experiments"
)

// benchCmd is `mkse bench`, which regenerates the tables and figures of
// the paper's evaluation (Örencik & Savaş, PAIS 2012); EXPERIMENTS.md
// records a reference run. It does not time the system — bench/ does —
// except for the replication sweep, which has no bench/ row yet.
func benchCmd(fs *flag.FlagSet) func() error {
	var (
		seed     = fs.Int64("seed", 2012, "experiment seed")
		docs     = fs.Int("docs", 400, "corpus size for fig3/table2")
		sizes    = fs.String("sizes", "2000,4000,6000,8000,10000", "comma-separated corpus sizes for fig4a/fig4b/cao/replication sweeps")
		queries  = fs.Int("queries", 50, "queries per measurement point")
		dict     = fs.Int("dict", 1000, "MRSE dictionary size for -exp cao (paper: several thousands)")
		trials   = fs.Int("trials", 25, "trials for -exp ranking")
		replicas = fs.Int("replicas", 2, "read replicas for -exp replication")
		sweep    []int
		all      bool // -exp all: the cao and replication sweeps run at reduced scale
	)
	// table lists every experiment -exp accepts, in the order -exp all
	// runs them.
	table := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig2a", func() (string, error) {
			r, err := experiments.Fig2a(*seed)
			if err != nil {
				return "", err
			}
			return r.Format("Figure 2(a) — query distances, term count unknown"), nil
		}},
		{"fig2b", func() (string, error) {
			r, err := experiments.Fig2b(*seed)
			if err != nil {
				return "", err
			}
			return r.Format("Figure 2(b) — query distances, 5 terms known"), nil
		}},
		{"fig3", func() (string, error) { return format(experiments.Fig3(*docs, *queries, *seed)) }},
		{"fig4a", func() (string, error) { return format(experiments.Fig4a(sweep, *seed)) }},
		{"fig4b", func() (string, error) { return format(experiments.Fig4b(sweep, *queries, *seed)) }},
		{"table1", func() (string, error) { return format(experiments.Table1(3, 10, 2, 1<<20, *seed)) }},
		{"table2", func() (string, error) { return format(experiments.Table2(*docs, *seed)) }},
		{"ranking", func() (string, error) { return format(experiments.RankingQuality(*trials, *seed)) }},
		{"cao", func() (string, error) {
			// The full paper sweep at n=4000+ takes hours for MRSE — exactly
			// the paper's point — so -exp all scales it down.
			if all {
				return format(experiments.CaoComparison([]int{500, 1000, 2000}, *dict, *queries, *seed))
			}
			return format(experiments.CaoComparison(sweep, *dict, *queries, *seed))
		}},
		{"analytic", func() (string, error) { return format(experiments.Analytics(300, *seed)) }},
		{"theorem3", func() (string, error) { return format(experiments.Theorem3()) }},
		{"attack", func() (string, error) { return format(experiments.BruteForceAttack(25000, *seed)) }},
		{"confidence", func() (string, error) { return format(experiments.AdversaryConfidence(500, *seed)) }},
		{"ablate-d", func() (string, error) { return format(experiments.DSweep(*docs, *queries, *seed)) }},
		{"ablate-v", func() (string, error) { return format(experiments.VSweep(500, *seed)) }},
		{"ablate-bins", func() (string, error) { return format(experiments.BinsSweep(25000, *seed)) }},
		{"replication", func() (string, error) {
			if all {
				return format(experiments.ReplicationSweep([]int{1000, 5000}, *replicas, *queries, *seed))
			}
			return format(experiments.ReplicationSweep(sweep, *replicas, *queries, *seed))
		}},
	}
	var names []string
	for _, e := range table {
		names = append(names, e.name)
	}
	valid := strings.Join(append(names, "all"), " ")
	exp := fs.String("exp", "all", "experiment to run ("+valid+")")
	return func() error {
		var err error
		if sweep, err = parseInts(*sizes); err != nil {
			return usageError{err}
		}
		all = *exp == "all"
		if !all && !slices.Contains(names, *exp) {
			return usagef("unknown -exp %q (valid: %s)", *exp, valid)
		}
		for _, e := range table {
			if all || *exp == e.name {
				out, err := e.run()
				if err != nil {
					return fmt.Errorf("%s: %w", e.name, err)
				}
				fmt.Println(out)
			}
		}
		return nil
	}
}

// format renders an experiment's result, or passes its error on.
func format[R interface{ Format() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format(), nil
}
