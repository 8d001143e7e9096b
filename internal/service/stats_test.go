package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/telemetry"
)

// stateSeries are the series a Stats reply carries: the ones a /metrics
// scrape and `mkse-client stats -json` must report alike.
var stateSeries = []string{
	SeriesDocuments, SeriesShards, SeriesEpoch,
	SeriesQCacheHits, SeriesQCacheMisses, SeriesQCacheEvictions, SeriesQCacheInvalid,
	SeriesQCacheEntries, SeriesQCacheBytes, SeriesQCacheMaxBytes,
	SeriesWALPosition, SeriesTerm, SeriesReplicaConnected, SeriesReplicaLag, SeriesFollowerLag,
}

// statsDaemon is one metrics-enabled cloud daemon serving on loopback.
type statsDaemon struct {
	name string
	reg  *telemetry.Registry
	addr string
}

func serveStatsDaemon(t *testing.T, name string, svc *CloudService) *statsDaemon {
	t.Helper()
	d := &statsDaemon{name: name, reg: telemetry.New()}
	svc.EnableMetrics(d.reg)
	d.addr = serveLoopback(t, svc.Serve)
	return d
}

func openStatsEngine(t *testing.T) *durable.Engine {
	t.Helper()
	eng, err := durable.Open(t.TempDir(), replParams(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Crash)
	return eng
}

// startStatsDaemons brings up every role a daemon can report: a memory node
// with a cache that has served a miss and a hit, a durable primary with one
// caught-up follower, that follower, and a fenced ex-primary. It returns
// once the replication pair is quiescent, so a scrape and a Stats call made
// one after the other see the same state.
func startStatsDaemons(t *testing.T) []*statsDaemon {
	t.Helper()
	p := replParams()
	rng := rand.New(rand.NewSource(40))

	memSrv, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	mem := serveStatsDaemon(t, "memory+cache", &CloudService{Server: memSrv, Cache: NewResultCache(1 << 20)})
	var si *core.SearchIndex
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		si = replIndex(rng, p, id)
		if err := wireUpload(t, mem.addr, si, id); err != nil {
			t.Fatal(err)
		}
	}
	q := cacheQuery(rng, p, si)
	for i := 0; i < 2; i++ {
		if resp := exchange(t, mem.addr, &protocol.Message{SearchReq: &protocol.SearchRequest{Query: q, TopK: 5}}); resp.Error != nil {
			t.Fatal(resp.Error.Text)
		}
	}

	peng := openStatsEngine(t)
	for i := 0; i < 8; i++ {
		replUpload(t, peng, rng, p, fmt.Sprintf("doc-%03d", i))
	}
	prim := serveStatsDaemon(t, "primary", &CloudService{Server: peng.Server(), Store: peng, WAL: peng, Eng: peng,
		HeartbeatEvery: 25 * time.Millisecond})

	feng := openStatsEngine(t)
	rep := StartReplica(feng, prim.addr, nil)
	t.Cleanup(func() { rep.Close() })
	fol := serveStatsDaemon(t, "follower", &CloudService{Server: feng.Server(), Store: feng, WAL: feng, Eng: feng,
		Replica: rep, HeartbeatEvery: 25 * time.Millisecond})

	deng := openStatsEngine(t)
	replUpload(t, deng, rng, p, "doc-fenced")
	fenced := &CloudService{Server: deng.Server(), Store: deng, WAL: deng, Eng: deng}
	fenced.fence(7)
	ex := serveStatsDaemon(t, "fenced", fenced)

	// Wait for the follower to apply and acknowledge the primary's whole
	// log, with the primary's position heard back (zero lag on both ends).
	deadline := time.Now().Add(20 * time.Second)
	for {
		ps, perr := FetchStats(prim.addr)
		fs, ferr := FetchStats(fol.addr)
		if perr == nil && ferr == nil && len(ps.Followers) == 1 && ps.Followers[0].Acked == ps.WALPosition &&
			fs.ReplicaConnected && fs.WALPosition == ps.WALPosition && fs.PrimaryPosition == fs.WALPosition {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication pair never settled: primary %+v (%v), follower %+v (%v)", ps, perr, fs, ferr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return []*statsDaemon{mem, prim, fol, ex}
}

// scrapeSample is one sample line of a Prometheus exposition.
type scrapeSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseSamples reads the sample lines of an exposition, skipping comments.
func parseSamples(t *testing.T, exposition string) []scrapeSample {
	t.Helper()
	var out []scrapeSample
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		s := scrapeSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

// statsJSONDecoded is StatsJSON as a script reads it: encoded and decoded
// again, so every number is a float64 and a labelled series is an object.
func statsJSONDecoded(t *testing.T, addr string) map[string]any {
	t.Helper()
	st, err := FetchStats(addr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(StatsJSON(st))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// The vocabulary contract: on every kind of daemon, each state-series
// sample a /metrics scrape exposes has the same value in `stats -json`
// (a labelled sample under its label value), and `stats -json` carries no
// state series the scrape lacks.
func TestScrapeAndStatsJSONAgree(t *testing.T) {
	for _, d := range startStatsDaemons(t) {
		scraped := parseSamples(t, d.reg.Render())
		js := statsJSONDecoded(t, d.addr)
		seen := map[string]bool{}
		for _, s := range scraped {
			if !slices.Contains(stateSeries, s.name) {
				continue
			}
			seen[s.name] = true
			var got any = js[s.name]
			if len(s.labels) > 0 {
				obj, _ := got.(map[string]any)
				got = nil
				for _, lv := range s.labels {
					got = obj[lv]
				}
			}
			if got != s.value {
				t.Errorf("%s: scrape %s%v = %v, stats -json has %v", d.name, s.name, s.labels, s.value, got)
			}
		}
		for name := range js {
			if slices.Contains(stateSeries, name) && !seen[name] {
				t.Errorf("%s: stats -json has %s, the scrape does not", d.name, name)
			}
		}
	}
}

// exposition pins what EnableMetrics exports on each kind of daemon: the
// sequence of # HELP / # TYPE lines, then each state-series sample as its
// name and label keys. Captured before the state series moved into one
// table over the Stats reply, so any drift in family order, help text,
// kind or label set fails here.
var exposition = map[string]string{
	"memory+cache": `# HELP mkse_requests_in_flight Requests currently being served.
# TYPE mkse_requests_in_flight gauge
# HELP mkse_request_duration_seconds Wire request latency by verb.
# TYPE mkse_request_duration_seconds histogram
# HELP mkse_request_errors_total Requests answered with an error, by verb.
# TYPE mkse_request_errors_total counter
# HELP mkse_request_slowest_traced_seconds Slowest traced request per verb; trace_id points into /traces.
# TYPE mkse_request_slowest_traced_seconds gauge
# HELP mkse_scan_duration_seconds Arena scan duration per search or batch search.
# TYPE mkse_scan_duration_seconds histogram
# HELP mkse_documents Documents in the store.
# TYPE mkse_documents gauge
# HELP mkse_shards Arena shards in the store.
# TYPE mkse_shards gauge
# HELP mkse_epoch Mutation epoch (monotonic; feeds cache invalidation).
# TYPE mkse_epoch gauge
# HELP mkse_qcache_hits_total Query-result cache hits.
# TYPE mkse_qcache_hits_total counter
# HELP mkse_qcache_misses_total Query-result cache misses.
# TYPE mkse_qcache_misses_total counter
# HELP mkse_qcache_evictions_total Query-result cache size evictions.
# TYPE mkse_qcache_evictions_total counter
# HELP mkse_qcache_invalidations_total Query-result cache epoch invalidations.
# TYPE mkse_qcache_invalidations_total counter
# HELP mkse_qcache_entries Query-result cache live entries.
# TYPE mkse_qcache_entries gauge
# HELP mkse_qcache_bytes Query-result cache resident bytes.
# TYPE mkse_qcache_bytes gauge
# HELP mkse_qcache_max_bytes Query-result cache byte budget.
# TYPE mkse_qcache_max_bytes gauge
# HELP mkse_role Current role (the labelled series is 1).
# TYPE mkse_role gauge
# HELP mkse_replica_connected 1 while the follower's replication stream is established.
# TYPE mkse_replica_connected gauge
# HELP mkse_replica_lag_records Follower's replication lag in records.
# TYPE mkse_replica_lag_records gauge
# HELP mkse_follower_lag_records Per-follower replication lag in records, from the primary's view.
# TYPE mkse_follower_lag_records gauge
mkse_documents{}
mkse_shards{}
mkse_epoch{}
mkse_qcache_hits_total{}
mkse_qcache_misses_total{}
mkse_qcache_evictions_total{}
mkse_qcache_invalidations_total{}
mkse_qcache_entries{}
mkse_qcache_bytes{}
mkse_qcache_max_bytes{}
`,
	"primary": `# HELP mkse_requests_in_flight Requests currently being served.
# TYPE mkse_requests_in_flight gauge
# HELP mkse_request_duration_seconds Wire request latency by verb.
# TYPE mkse_request_duration_seconds histogram
# HELP mkse_request_errors_total Requests answered with an error, by verb.
# TYPE mkse_request_errors_total counter
# HELP mkse_request_slowest_traced_seconds Slowest traced request per verb; trace_id points into /traces.
# TYPE mkse_request_slowest_traced_seconds gauge
# HELP mkse_scan_duration_seconds Arena scan duration per search or batch search.
# TYPE mkse_scan_duration_seconds histogram
# HELP mkse_documents Documents in the store.
# TYPE mkse_documents gauge
# HELP mkse_shards Arena shards in the store.
# TYPE mkse_shards gauge
# HELP mkse_epoch Mutation epoch (monotonic; feeds cache invalidation).
# TYPE mkse_epoch gauge
# HELP mkse_wal_position Write-ahead log position (log sequence number).
# TYPE mkse_wal_position gauge
# HELP mkse_term Promotion (fencing) term.
# TYPE mkse_term gauge
# HELP mkse_role Current role (the labelled series is 1).
# TYPE mkse_role gauge
# HELP mkse_replica_connected 1 while the follower's replication stream is established.
# TYPE mkse_replica_connected gauge
# HELP mkse_replica_lag_records Follower's replication lag in records.
# TYPE mkse_replica_lag_records gauge
# HELP mkse_follower_lag_records Per-follower replication lag in records, from the primary's view.
# TYPE mkse_follower_lag_records gauge
mkse_documents{}
mkse_shards{}
mkse_epoch{}
mkse_wal_position{}
mkse_term{}
mkse_follower_lag_records{follower}
`,
	"follower": `# HELP mkse_requests_in_flight Requests currently being served.
# TYPE mkse_requests_in_flight gauge
# HELP mkse_request_duration_seconds Wire request latency by verb.
# TYPE mkse_request_duration_seconds histogram
# HELP mkse_request_errors_total Requests answered with an error, by verb.
# TYPE mkse_request_errors_total counter
# HELP mkse_request_slowest_traced_seconds Slowest traced request per verb; trace_id points into /traces.
# TYPE mkse_request_slowest_traced_seconds gauge
# HELP mkse_scan_duration_seconds Arena scan duration per search or batch search.
# TYPE mkse_scan_duration_seconds histogram
# HELP mkse_documents Documents in the store.
# TYPE mkse_documents gauge
# HELP mkse_shards Arena shards in the store.
# TYPE mkse_shards gauge
# HELP mkse_epoch Mutation epoch (monotonic; feeds cache invalidation).
# TYPE mkse_epoch gauge
# HELP mkse_wal_position Write-ahead log position (log sequence number).
# TYPE mkse_wal_position gauge
# HELP mkse_term Promotion (fencing) term.
# TYPE mkse_term gauge
# HELP mkse_role Current role (the labelled series is 1).
# TYPE mkse_role gauge
# HELP mkse_replica_connected 1 while the follower's replication stream is established.
# TYPE mkse_replica_connected gauge
# HELP mkse_replica_lag_records Follower's replication lag in records.
# TYPE mkse_replica_lag_records gauge
# HELP mkse_follower_lag_records Per-follower replication lag in records, from the primary's view.
# TYPE mkse_follower_lag_records gauge
mkse_documents{}
mkse_shards{}
mkse_epoch{}
mkse_wal_position{}
mkse_term{}
mkse_replica_connected{}
mkse_replica_lag_records{}
`,
	"fenced": `# HELP mkse_requests_in_flight Requests currently being served.
# TYPE mkse_requests_in_flight gauge
# HELP mkse_request_duration_seconds Wire request latency by verb.
# TYPE mkse_request_duration_seconds histogram
# HELP mkse_request_errors_total Requests answered with an error, by verb.
# TYPE mkse_request_errors_total counter
# HELP mkse_request_slowest_traced_seconds Slowest traced request per verb; trace_id points into /traces.
# TYPE mkse_request_slowest_traced_seconds gauge
# HELP mkse_scan_duration_seconds Arena scan duration per search or batch search.
# TYPE mkse_scan_duration_seconds histogram
# HELP mkse_documents Documents in the store.
# TYPE mkse_documents gauge
# HELP mkse_shards Arena shards in the store.
# TYPE mkse_shards gauge
# HELP mkse_epoch Mutation epoch (monotonic; feeds cache invalidation).
# TYPE mkse_epoch gauge
# HELP mkse_wal_position Write-ahead log position (log sequence number).
# TYPE mkse_wal_position gauge
# HELP mkse_term Promotion (fencing) term.
# TYPE mkse_term gauge
# HELP mkse_role Current role (the labelled series is 1).
# TYPE mkse_role gauge
# HELP mkse_replica_connected 1 while the follower's replication stream is established.
# TYPE mkse_replica_connected gauge
# HELP mkse_replica_lag_records Follower's replication lag in records.
# TYPE mkse_replica_lag_records gauge
# HELP mkse_follower_lag_records Per-follower replication lag in records, from the primary's view.
# TYPE mkse_follower_lag_records gauge
mkse_documents{}
mkse_shards{}
mkse_epoch{}
mkse_wal_position{}
mkse_term{}
`,
}

func TestStateSeriesExpositionPinned(t *testing.T) {
	for _, d := range startStatsDaemons(t) {
		var b strings.Builder
		text := d.reg.Render()
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "# ") {
				b.WriteString(line + "\n")
			}
		}
		for _, s := range parseSamples(t, text) {
			if !slices.Contains(stateSeries, s.name) {
				continue
			}
			keys := make([]string, 0, len(s.labels))
			for k := range s.labels {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			fmt.Fprintf(&b, "%s{%s}\n", s.name, strings.Join(keys, ","))
		}
		if got := b.String(); got != exposition[d.name] {
			t.Errorf("%s exposition drifted; got:\n%s", d.name, got)
		}
	}
}
