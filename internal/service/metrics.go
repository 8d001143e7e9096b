package service

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"mkse/internal/protocol"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// Series names exported by the cloud daemon. The state series — those the
// Stats reply carries — are mapped from it in one place, statsRows, which
// /metrics, `mkse client -json stats` (StatsJSON) and `mkse client stats`
// (WriteStats) all render: a scrape and a stats call cannot disagree.
const (
	SeriesRequestDuration  = "mkse_request_duration_seconds"
	SeriesRequestsInFlight = "mkse_requests_in_flight"
	SeriesRequestErrors    = "mkse_request_errors_total"
	SeriesScanDuration     = "mkse_scan_duration_seconds"
	SeriesDocuments        = "mkse_documents"
	SeriesShards           = "mkse_shards"
	SeriesEpoch            = "mkse_epoch"
	SeriesQCacheHits       = "mkse_qcache_hits_total"
	SeriesQCacheMisses     = "mkse_qcache_misses_total"
	SeriesQCacheEvictions  = "mkse_qcache_evictions_total"
	SeriesQCacheInvalid    = "mkse_qcache_invalidations_total"
	SeriesQCacheEntries    = "mkse_qcache_entries"
	SeriesQCacheBytes      = "mkse_qcache_bytes"
	SeriesQCacheMaxBytes   = "mkse_qcache_max_bytes"
	SeriesWALPosition      = "mkse_wal_position"
	SeriesTerm             = "mkse_term"
	SeriesReplicaConnected = "mkse_replica_connected"
	SeriesReplicaLag       = "mkse_replica_lag_records"
	SeriesFollowerLag      = "mkse_follower_lag_records"
	SeriesRole             = "mkse_role"
	SeriesBuildInfo        = "mkse_build_info"
	SeriesSlowestTraced    = "mkse_request_slowest_traced_seconds"
)

// verbMetrics is one verb's latency histogram and error counter, plus the
// exemplar-style record of its slowest traced request: histograms alone say
// the p99 is bad, the attached trace_id says which trace to open.
type verbMetrics struct {
	latency *telemetry.Histogram
	errors  *telemetry.Counter

	slowMu    sync.Mutex
	slowDur   time.Duration
	slowTrace string
}

// ServiceMetrics carries the cloud service's request instruments. Build it
// with EnableMetrics; a nil *ServiceMetrics is valid and free (every method
// no-ops), so uninstrumented daemons pay only a nil check per request.
type ServiceMetrics struct {
	inflight *telemetry.Gauge
	verbs    map[string]*verbMetrics // by label of the cloud's verb table
	scan     *telemetry.Histogram    // fed by the core server's scan hook (observeScans)
}

// begin/end bracket one in-flight request.
func (m *ServiceMetrics) begin() {
	if m != nil {
		m.inflight.Inc()
	}
}

func (m *ServiceMetrics) end() {
	if m != nil {
		m.inflight.Dec()
	}
}

// observe records one finished request's verb, latency and error outcome.
// A non-empty traceID marks the request as traced; the slowest traced
// observation per verb is retained with its trace_id and exported by the
// mkse_request_slowest_traced_seconds collector — a poor man's exemplar that
// survives the plain-text exposition format.
func (m *ServiceMetrics) observe(verb string, d time.Duration, isErr bool, traceID string) {
	if m == nil {
		return
	}
	vm := m.verbs[verb]
	vm.latency.Observe(d)
	if isErr {
		vm.errors.Inc()
	}
	if traceID != "" {
		vm.slowMu.Lock()
		if d > vm.slowDur {
			vm.slowDur = d
			vm.slowTrace = traceID
		}
		vm.slowMu.Unlock()
	}
}

// EnableMetrics registers the cloud service's full series inventory on reg
// and wires the returned instruments into the request path (s.Metrics) and
// the core server's scan hook (observeScans). The state series are not
// counted twice: each row of statsRows is a scrape-time collector over
// s.stats(), the reader the Stats verb replies with. A row that needs a
// cache or a WAL the daemon lacks is not registered. Call it once, before
// Serve.
func (s *CloudService) EnableMetrics(reg *telemetry.Registry) *ServiceMetrics {
	var labels []string // the verb table's row names; the two search rows are adjacent
	for _, v := range s.verbs() {
		labels = append(labels, v.name)
	}
	labels = slices.Compact(labels)
	m := &ServiceMetrics{verbs: make(map[string]*verbMetrics, len(labels))}
	m.inflight = reg.Gauge(SeriesRequestsInFlight, "Requests currently being served.")
	// Every label is registered up front, so each series exists from the
	// first scrape (Prometheus rate() needs the zero sample).
	for _, v := range labels {
		m.verbs[v] = &verbMetrics{
			latency: reg.Histogram(SeriesRequestDuration, "Wire request latency by verb.",
				telemetry.RequestBuckets(), telemetry.Label{Key: "verb", Value: v}),
			errors: reg.Counter(SeriesRequestErrors, "Requests answered with an error, by verb.",
				telemetry.Label{Key: "verb", Value: v}),
		}
	}

	// Slowest traced request per verb, labelled with its trace_id — collected
	// at scrape time because the trace_id label value changes as slower
	// requests displace the record.
	reg.Collect(SeriesSlowestTraced, "Slowest traced request per verb; trace_id points into /traces.",
		telemetry.KindGauge, func(emit func([]telemetry.Label, float64)) {
			for _, v := range labels {
				vm := m.verbs[v]
				vm.slowMu.Lock()
				d, id := vm.slowDur, vm.slowTrace
				vm.slowMu.Unlock()
				if id == "" {
					continue
				}
				emit([]telemetry.Label{
					{Key: "verb", Value: v},
					{Key: "trace_id", Value: id},
				}, d.Seconds())
			}
		})

	m.scan = reg.Histogram(SeriesScanDuration,
		"Arena scan duration per search or batch search.", telemetry.RequestBuckets())

	// The state series, one scrape-time collector per row over s.stats().
	// mkse_role is not in the Stats reply; it keeps its place in the
	// exposition, between the log and the replication families.
	now := StatsJSON(s.stats())
	for _, row := range statsRows {
		if row.name == SeriesReplicaConnected {
			reg.Collect(SeriesRole, "Current role (the labelled series is 1).", telemetry.KindGauge,
				func(emit func([]telemetry.Label, float64)) {
					emit([]telemetry.Label{{Key: "role", Value: s.roleName()}}, 1)
				})
		}
		if _, applies := now[row.name]; row.fixed && !applies {
			continue
		}
		reg.Collect(row.name, row.help, row.kind, func(emit func([]telemetry.Label, float64)) {
			row.samples(s.stats(), emit)
		})
	}

	s.Metrics = m
	s.observeScans()
	return m
}

// observeScans (re)installs the core server's one scan hook: it feeds the
// scan histogram when metrics are on and adds a "scan" span under a sampled
// request. EnableMetrics and EnableTracing both call it, so their order
// does not matter. On an unsampled request the hook is two atomic adds and
// one context lookup, so the scan path stays allocation-free
// (TestSearchScanPathAllocationFree).
func (s *CloudService) observeScans() {
	var hist *telemetry.Histogram // nil, so nothing is observed, with metrics off
	if s.Metrics != nil {
		hist = s.Metrics.scan
	}
	s.Server.ObserveScans(func(ctx context.Context, start time.Time, d time.Duration) {
		trace.AddCompleted(ctx, "scan", start, d, hist)
	})
}

// roleName names the daemon's current role for the mkse_role series and
// /healthz.
func (s *CloudService) roleName() string {
	switch {
	case s.isDemoted():
		return "fenced"
	case s.replica() != nil:
		return "follower"
	case s.WAL != nil:
		return "primary"
	default:
		return "standalone"
	}
}

// Health reports the daemon's readiness for /healthz. A primary (or
// standalone) daemon is ready once serving; a follower is ready only while
// its replication stream is up and within maxLag records of the primary
// (<= 0 means DefaultMaxReplicaLag); a fenced ex-primary is never ready —
// it rejects writes and its reads may be arbitrarily stale.
func (s *CloudService) Health(maxLag uint64) telemetry.Health {
	if maxLag == 0 {
		maxLag = DefaultMaxReplicaLag
	}
	h := telemetry.Health{Ready: true, Role: s.roleName()}
	if s.WAL != nil {
		h.Term = s.WAL.Term()
	}
	switch h.Role {
	case "fenced":
		h.Ready = false
		h.Detail = "fenced after a failover; awaiting reconfigure"
	case "follower":
		r := s.replica()
		if r == nil {
			break // role changed between calls; report what we see now
		}
		st := r.Status()
		h.Lag = st.PrimaryPosition - st.Position
		switch {
		case !st.Connected:
			h.Ready = false
			h.Detail = "replication stream down"
			if st.LastError != nil {
				h.Detail = "replication stream down: " + st.LastError.Error()
			}
		case h.Lag > maxLag:
			h.Ready = false
			h.Detail = "replication lag over budget"
		}
	}
	return h
}

// statsRow maps a Stats reply (CloudService.stats) to one state series.
// statsRows is the only such mapping.
type statsRow struct {
	name, help string
	kind       telemetry.Kind
	// fixed marks a row that needs configuration set before EnableMetrics
	// and never changed (a cache, a WAL): it is registered only if it
	// applies then. Any other row follows the role, which a promotion
	// changes at runtime, so it is always registered.
	fixed   bool
	samples sampler
}

// A sampler emits a row's samples for a Stats reply: one unlabelled
// sample, or one per follower under a single label, its address. A row
// that emits none does not apply to the daemon.
type sampler func(st *protocol.StatsResponse, emit func(labels []telemetry.Label, v float64))

// one is the sampler of a row with one unlabelled sample, read by value,
// that applies to the daemons whose reply satisfies when (nil: all).
func one(when func(*protocol.StatsResponse) bool, value func(*protocol.StatsResponse) float64) sampler {
	return func(st *protocol.StatsResponse, emit func([]telemetry.Label, float64)) {
		if when == nil || when(st) {
			emit(nil, value(st))
		}
	}
}

func cached(st *protocol.StatsResponse) bool    { return st.Cache.Enabled }
func logged(st *protocol.StatsResponse) bool    { return st.Durable }
func following(st *protocol.StatsResponse) bool { return st.Replica }

// lag is how many records a log at acked trails one at position.
func lag(position, acked uint64) float64 {
	if acked >= position {
		return 0
	}
	return float64(position - acked)
}

var statsRows = []statsRow{
	{name: SeriesDocuments, help: "Documents in the store.", kind: telemetry.KindGauge,
		samples: one(nil, func(st *protocol.StatsResponse) float64 { return float64(st.NumDocuments) })},
	{name: SeriesShards, help: "Arena shards in the store.", kind: telemetry.KindGauge,
		samples: one(nil, func(st *protocol.StatsResponse) float64 { return float64(st.NumShards) })},
	{name: SeriesEpoch, help: "Mutation epoch (monotonic; feeds cache invalidation).", kind: telemetry.KindGauge,
		samples: one(nil, func(st *protocol.StatsResponse) float64 { return float64(st.Epoch) })},

	{name: SeriesQCacheHits, help: "Query-result cache hits.", kind: telemetry.KindCounter, fixed: true,
		samples: one(cached, func(st *protocol.StatsResponse) float64 { return float64(st.Cache.Hits) })},
	{name: SeriesQCacheMisses, help: "Query-result cache misses.", kind: telemetry.KindCounter, fixed: true,
		samples: one(cached, func(st *protocol.StatsResponse) float64 { return float64(st.Cache.Misses) })},
	{name: SeriesQCacheEvictions, help: "Query-result cache size evictions.", kind: telemetry.KindCounter, fixed: true,
		samples: one(cached, func(st *protocol.StatsResponse) float64 { return float64(st.Cache.Evictions) })},
	{name: SeriesQCacheInvalid, help: "Query-result cache epoch invalidations.", kind: telemetry.KindCounter, fixed: true,
		samples: one(cached, func(st *protocol.StatsResponse) float64 { return float64(st.Cache.Invalidations) })},
	{name: SeriesQCacheEntries, help: "Query-result cache live entries.", kind: telemetry.KindGauge, fixed: true,
		samples: one(cached, func(st *protocol.StatsResponse) float64 { return float64(st.Cache.Entries) })},
	{name: SeriesQCacheBytes, help: "Query-result cache resident bytes.", kind: telemetry.KindGauge, fixed: true,
		samples: one(cached, func(st *protocol.StatsResponse) float64 { return float64(st.Cache.Bytes) })},
	{name: SeriesQCacheMaxBytes, help: "Query-result cache byte budget.", kind: telemetry.KindGauge, fixed: true,
		samples: one(cached, func(st *protocol.StatsResponse) float64 { return float64(st.Cache.MaxBytes) })},

	{name: SeriesWALPosition, help: "Write-ahead log position (log sequence number).", kind: telemetry.KindGauge, fixed: true,
		samples: one(logged, func(st *protocol.StatsResponse) float64 { return float64(st.WALPosition) })},
	{name: SeriesTerm, help: "Promotion (fencing) term.", kind: telemetry.KindGauge, fixed: true,
		samples: one(logged, func(st *protocol.StatsResponse) float64 { return float64(st.Term) })},

	{name: SeriesReplicaConnected, help: "1 while the follower's replication stream is established.", kind: telemetry.KindGauge,
		samples: one(following, func(st *protocol.StatsResponse) float64 {
			if st.ReplicaConnected {
				return 1
			}
			return 0
		})},
	{name: SeriesReplicaLag, help: "Follower's replication lag in records.", kind: telemetry.KindGauge,
		samples: one(following, func(st *protocol.StatsResponse) float64 { return lag(st.PrimaryPosition, st.WALPosition) })},
	{name: SeriesFollowerLag, help: "Per-follower replication lag in records, from the primary's view.", kind: telemetry.KindGauge,
		samples: func(st *protocol.StatsResponse, emit func([]telemetry.Label, float64)) {
			for _, f := range st.Followers {
				emit([]telemetry.Label{{Key: "follower", Value: f.Addr}}, lag(st.WALPosition, f.Acked))
			}
		}},
}

// StatsJSON renders a Stats reply as the rows of statsRows — the `mkse client
// -json stats` payload, keyed by the series names a /metrics scrape of the
// same daemon exposes, with the same values. The per-follower row is an
// object keyed by follower address. Rows that do not apply to the daemon
// (no cache, no WAL, not a replica, no follower) are omitted.
func StatsJSON(st *protocol.StatsResponse) map[string]any {
	out := map[string]any{}
	for _, row := range statsRows {
		row.samples(st, func(labels []telemetry.Label, v float64) {
			if len(labels) == 0 {
				out[row.name] = v
				return
			}
			byLabel, _ := out[row.name].(map[string]float64)
			if byLabel == nil {
				byLabel = map[string]float64{}
				out[row.name] = byLabel
			}
			byLabel[labels[0].Value] = v
		})
	}
	return out
}

// WriteStats writes a Stats reply as the rows of statsRows, one sample per
// line in exposition syntax (`mkse_documents 300`), in the order a /metrics
// scrape lists them — the text `mkse client stats` prints.
func WriteStats(w io.Writer, st *protocol.StatsResponse) {
	for _, row := range statsRows {
		row.samples(st, func(labels []telemetry.Label, v float64) {
			name := row.name
			if len(labels) > 0 {
				name += fmt.Sprintf("{%s=%q}", labels[0].Key, labels[0].Value)
			}
			fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(v, 'f', -1, 64))
		})
	}
}
