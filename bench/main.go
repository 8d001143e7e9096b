// Command bench is the repository's benchmark: it starts the real daemons
// in-process on loopback TCP, drives them from one closed-loop client
// goroutine, checks the results against a sequential reference and prints
// every metric by name with its unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mkse/internal/service"
)

const defaultSeed = 20120330

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names    []string
	metrics  map[string]metric
	topology map[string]bool // printed, and not in BENCHMARK.json: see addTopology
}

func (r *report) add(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// addTopology records a metric of a layer that only some workloads'
// topologies have (the result cache, the durable engine, a P > 1 merge).
// BENCHMARK.json lists what every workload's traced run reports, so such a
// metric is printed by the workloads that exercise the layer and left out,
// not reported as 0, by the others.
func (r *report) addTopology(name string, value float64, unit string) {
	if r.topology == nil {
		r.topology = make(map[string]bool)
	}
	r.topology[name] = true
	r.add(name, value, unit)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	scale    int // the package's tests shrink the workloads by this; no flag sets it
}

func main() {
	var o options
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: wire_small, scan_large, scatter_p4 or mixed_churn")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the corpus, query set and churn schedule")
	flag.IntVar(&o.seconds, "seconds", 0, "nominal length of the timed rounds, printed beside their real length; the operation counts are fixed and do not follow it")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for span files and durable partitions")
	flag.BoolVar(&selfcheck, "selfcheck", false, "noise study: two interleaved sets of runs per workload, compared against the bounds")
	flag.Parse()
	o.trace = traceFlag != 0

	if selfcheck {
		os.Exit(selfCheck(o))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload once and prints its metrics to out. The
// result line carries the metrics BENCHMARK.json declares for the mode;
// metrics of layers only this workload's topology has are printed as well
// and stay out of it.
func run(o options, out *os.File) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	w = w.scaled(o.scale)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	// Two procs whatever the host has, so the default shard and worker
	// layout of every daemon is the same everywhere. GOGC stays default.
	runtime.GOMAXPROCS(2)

	var rep report
	var rs *runStats
	if o.trace {
		rs, err = runTraced(w, o, &rep, out)
	} else {
		rs, err = runEndToEnd(w, o, &rep, out)
	}
	if err != nil {
		return nil, err
	}
	declared := make(map[string]metric, len(rep.names))
	for _, name := range rep.names {
		m := rep.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		fmt.Fprintf(out, "metric %s %.6g %s\n", name, m.Value, m.Unit)
		if !rep.topology[name] {
			declared[name] = m
		}
	}
	fmt.Fprintf(out, "ops_attempted %d\nops_failed %d\n", rs.attempted, rs.failed)
	return &result{Correct: true, Attempted: rs.attempted, Failed: rs.failed, Metrics: declared}, nil
}

// runEndToEnd measures the five end-to-end metrics with tracing and
// telemetry off, then runs the correctness gate. The system is set up
// afresh for every pass, so set-up is measured several times in a run and
// the timed rounds are spread over the run and over independent instances
// of the system; every metric is the median over passes or over rounds.
func runEndToEnd(w workload, o options, rep *report, out *os.File) (*runStats, error) {
	rs := &runStats{}
	var s *system
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	var setups, heaps []float64
	start := time.Now()
	for p := 1; p <= passes; p++ {
		if s != nil {
			s.close()
			s = nil // or the last pass's store stays reachable while the next is built
		}
		var err error
		if s, err = setUp(w, o.seed, o.outDir, false); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		heaps = append(heaps, s.heapPerDoc)
		fmt.Fprintf(out, "info pass %d setup_s %.4f inputs_s %.4f load_s %.4f enrol_s %.4f heap_bytes_per_doc %.2f\n",
			p, s.setup.Seconds(), s.inputsTime.Seconds(), s.loadTime.Seconds(), (s.dialCluster + s.trapdoorWarm).Seconds(), s.heapPerDoc)
		err = s.timedRounds(rs, roundsPerPass, func(q []string) ([]service.Match, error) {
			return s.client.Search(q, topK)
		})
		if err != nil {
			return nil, err
		}
	}
	allocs, _, err := s.allocsPerSearch(rs)
	if err != nil {
		return nil, err
	}
	measured := time.Since(start)

	rep.add("setup_s", medianOf(setups), "s")
	rep.add("search_p50_ms", median(rs.rounds, func(r roundStats) float64 { return ms(r.p50) }), "ms")
	rep.add("ops_per_s", median(rs.rounds, func(r roundStats) float64 { return r.opsPerSec(w.opsPerRound()) }), "1/s")
	rep.add("allocs_per_search", allocs, "count")
	rep.add("heap_bytes_per_doc", medianOf(heaps), "B")
	fmt.Fprintf(out, "info passes %d rounds %d searches_per_round %d ops_per_round %d p50_samples_per_round %d\n",
		passes, len(rs.rounds), w.searches, w.opsPerRound(), w.searches)
	var timed time.Duration
	for i, r := range rs.rounds {
		timed += r.wall
		fmt.Fprintf(out, "info round %d p50_ms %.4f ops_per_s %.1f calib_ms %.3f gc %d\n", i+1, ms(r.p50), r.opsPerSec(w.opsPerRound()), ms(r.calib), r.gcCycles)
	}
	fmt.Fprintf(out, "info search_p99_ms %.4f calib_ms %.4f\n",
		median(rs.rounds, func(r roundStats) float64 { return ms(r.p99) }),
		median(rs.rounds, func(r roundStats) float64 { return ms(r.calib) }))
	fmt.Fprintf(out, "info timed_rounds_s %.2f (nominal --seconds %d) measured_s %.2f\n", timed.Seconds(), o.seconds, measured.Seconds())

	t0 := time.Now()
	if err := s.gate(rs, o.seed); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	fmt.Fprintf(out, "info gate_s %.2f\n", time.Since(t0).Seconds())
	return rs, nil
}
