package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// testScale shrinks every workload to 1/50 of its documents and searches,
// which keeps the whole package under ten seconds.
const testScale = 50

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract is the part of BENCHMARK.json the output must agree with.
type contract struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var metricLine = regexp.MustCompile(`(?m)^metric (\S+) (\S+) (\S+)$`)

// runOnce runs one workload at test scale and returns its result and
// printed output. A gate failure surfaces as the run's error.
func runOnce(t *testing.T, workload string, traced bool, outDir string) (*result, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(outDir, "stdout-"+workload))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := run(options{workload: workload, seed: defaultSeed, trace: traced, scale: testScale, outDir: outDir}, f)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	printed, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return res, string(printed)
}

// checkMetrics asserts that the declared metrics and the named extras, and
// nothing else, were printed once each with a finite value, and that the
// result line carries exactly the declared ones with the declared units.
func checkMetrics(t *testing.T, printed string, res *result, want []declared, extras []string) {
	t.Helper()
	seen := make(map[string]int)
	for _, m := range metricLine.FindAllStringSubmatch(printed, -1) {
		seen[m[1]]++
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s printed value %q", m[1], m[2])
		}
	}
	for _, d := range want {
		if seen[d.Name] != 1 {
			t.Errorf("metric %s printed %d times, want once", d.Name, seen[d.Name])
		}
		got, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing from the result line", d.Name)
		} else if got.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, got.Unit, d.Unit)
		}
	}
	for _, name := range extras {
		if seen[name] != 1 {
			t.Errorf("topology metric %s printed %d times, want once", name, seen[name])
		}
		if _, ok := res.Metrics[name]; ok {
			t.Errorf("topology metric %s is in the result line, which BENCHMARK.json does not declare", name)
		}
	}
	if len(seen) != len(want)+len(extras) || len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics and reported %d, want %d and %d", len(seen), len(res.Metrics), len(want)+len(extras), len(want))
	}
	if !strings.Contains(printed, "\nops_failed 0\n") || res.Failed != 0 || res.Attempted < 1 || !res.Correct {
		t.Errorf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
	}
}

// Metrics of layers only some topologies have: a traced run prints them
// where the layer is exercised and omits them elsewhere.
var (
	clusterMetrics = []string{"cluster.merge_us", "cluster.owner_ns"}
	durableMetrics = []string{
		"protocol.upload_encode_us", "protocol.upload_req_bytes", "service.upload_rpc_us", "service.delete_rpc_us",
		"service.searchwire_hit_us", "qcache.hit_ratio", "qcache.get_ns", "qcache.put_ns",
		"durable.upload_us", "durable.upload_fsync_us", "durable.wal_bytes_per_doc", "durable.disk_bytes_per_doc",
		"durable.checkpoint_pause_ms", "durable.checkpoint_write_ms", "durable.recover_s", "durable.replay_docs_per_s",
		"store.save_us_per_doc", "store.load_us_per_doc",
	}
	topologyMetrics = map[string][]string{
		"scatter_p4":  clusterMetrics,
		"mixed_churn": append(append([]string{}, clusterMetrics...), durableMetrics...),
	}
)

func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, c.Workloads[i].Name, w.name)
		}
	}
}

func TestEndToEndRun(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, printed := runOnce(t, w.name, false, t.TempDir())
			checkMetrics(t, printed, res, c.EndToEnd, nil)
		})
	}
}

func TestTracedRun(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			res, printed := runOnce(t, w.name, true, dir)
			checkMetrics(t, printed, res, c.PerLayer, topologyMetrics[w.name])

			raw, err := os.ReadFile(filepath.Join(dir, "trace_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if tf.Requests == 0 || len(tf.Spans) < tf.Requests {
				t.Fatalf("span file holds %d spans for %d requests", len(tf.Spans), tf.Requests)
			}
			for i, sp := range tf.Spans {
				if sp.ID != i+1 || sp.End < sp.Start {
					t.Fatalf("span %d malformed: %+v", i+1, sp)
				}
				if sp.Parent == 0 {
					continue
				}
				parent := tf.Spans[sp.Parent-1]
				if parent.Req != sp.Req || sp.Start < parent.Start || sp.End > parent.End {
					t.Fatalf("span %+v is not inside its parent %+v", sp, parent)
				}
			}
		})
	}
}

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 60},
		{ID: 3, Parent: 1, Start: 40, End: 80}, // overlaps span 2 by 20
		{ID: 4, Parent: 2, Start: 20, End: 30},
	}
	want := []int64{100 - 70, 50 - 10, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self time %d, want %d", i+1, got, want[i])
		}
	}
}

// The driver measures spread with Python's statistics.quantiles(v, n=4);
// the noise study must cut at the same points.
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	want := [3]float64{2.75, 5.5, 8.25}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
