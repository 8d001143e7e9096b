package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// selfCheckRuns is the number of runs in each of the noise study's two sets.
const selfCheckRuns = 5

// benchmarkFile is the part of BENCHMARK.json the noise study needs: the
// end-to-end metrics with their direction and bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck is the noise study: for every workload it runs this same
// binary in two interleaved sets (A B A B …), each run a fresh process, and
// compares the sets' medians. The code under test is identical, so any
// difference is noise; a difference beyond a metric's bound means the
// benchmark could not tell a regression of that size from nothing. Returns
// the process exit code.
func selfCheck(o options) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck runs from the repository root:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}

	failed := false
	fmt.Printf("| workload | metric | median | q1 | q3 | spread | set A | set B | A→B worse by | bound |\n|---|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfCheckRuns; i++ {
			res, err := runChild(self, name, o, bf.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", name, i, err)
				return 1
			}
			for m, v := range res.Metrics {
				sets[i%2][m] = append(sets[i%2][m], v.Value)
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			all := append(append([]float64{}, a...), b...)
			q := quartiles(all)
			ma, mb := medianOf(a), medianOf(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			// Either set may play the parent, so the gap counts in both
			// directions.
			if math.Abs(worse) > m.Bound {
				verdict = " FAIL"
				failed = true
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %.2f %% | %.5g | %.5g | %+.2f %% | %.0f %%%s |\n",
				name, m.Name, q[1], q[0], q[2], 100*(q[2]-q[0])/q[1], ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if failed {
		fmt.Println("selfcheck: FAIL — two sets of runs of the same code differ by more than a bound")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}

// runChild runs one workload once in a fresh process and parses the result
// line.
func runChild(self, workload string, o options, seconds int) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(seconds),
		"-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
	return &res, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default exclusive method),
// which is how the driver measures spread.
func quartiles(values []float64) [3]float64 {
	data := slices.Clone(values)
	slices.Sort(data)
	var q [3]float64
	ld := len(data)
	if ld < 2 {
		return q
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q
}
