package service

import (
	"context"
	"slices"
	"sync"
	"time"

	"mkse/internal/protocol"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// Verb names classify every wire request for metrics labels, slow-query
// logs and dispatch. They are the label values of the
// mkse_request_duration_seconds and mkse_request_errors_total series.
const (
	VerbUpload           = "upload"
	VerbDelete           = "delete"
	VerbSearch           = "search"
	VerbSearchBatch      = "searchbatch"
	VerbFetch            = "fetch"
	VerbStats            = "stats"
	VerbReplicaSubscribe = "replicasubscribe"
	VerbPromote          = "promote"
	VerbReconfigure      = "reconfigure"
	VerbClusterInfo      = "clusterinfo"
	VerbUnknown          = "unknown"
)

// verbs is the full label set, pre-registered so every series exists from
// the first scrape (Prometheus rate() needs the zero sample).
var verbs = []string{
	VerbUpload, VerbDelete, VerbSearch, VerbSearchBatch, VerbFetch,
	VerbStats, VerbReplicaSubscribe, VerbPromote, VerbReconfigure,
	VerbClusterInfo,
}

// verbOf classifies a decoded message by its populated request field.
func verbOf(m *protocol.Message) string {
	switch {
	case m.UploadReq != nil:
		return VerbUpload
	case m.DeleteReq != nil:
		return VerbDelete
	case m.SearchReq != nil:
		return VerbSearch
	case m.SearchBatchReq != nil:
		return VerbSearchBatch
	case m.FetchReq != nil:
		return VerbFetch
	case m.StatsReq != nil:
		return VerbStats
	case m.ReplicaSubscribeReq != nil:
		return VerbReplicaSubscribe
	case m.PromoteReq != nil:
		return VerbPromote
	case m.ReconfigureReq != nil:
		return VerbReconfigure
	case m.ClusterInfoReq != nil:
		return VerbClusterInfo
	default:
		return VerbUnknown
	}
}

// Series names exported by the cloud daemon. mkse-client's `stats -json`
// emits the Stats verb's reply keyed by the same names (StatsJSON), so a
// scrape of /metrics and a stats call agree on vocabulary.
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
	verbs    map[string]*verbMetrics // every verb plus VerbUnknown
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
	if vm == nil {
		vm = m.verbs[VerbUnknown]
	}
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
// the core server's scan hook (observeScans). Store/cache/WAL
// totals another subsystem already tracks are exported as scrape-time
// functions rather than double-counted; series with dynamic label sets
// (per-follower lag, the current role) are scrape-time collectors. Call it
// once, before Serve.
func (s *CloudService) EnableMetrics(reg *telemetry.Registry) *ServiceMetrics {
	m := &ServiceMetrics{verbs: make(map[string]*verbMetrics, len(verbs)+1)}
	m.inflight = reg.Gauge(SeriesRequestsInFlight, "Requests currently being served.")
	for _, v := range slices.Concat(verbs, []string{VerbUnknown}) {
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
			for _, v := range verbs {
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

	reg.GaugeFunc(SeriesDocuments, "Documents in the store.",
		func() float64 { return float64(s.Server.NumDocuments()) })
	reg.GaugeFunc(SeriesShards, "Arena shards in the store.",
		func() float64 { return float64(s.Server.NumShards()) })
	reg.GaugeFunc(SeriesEpoch, "Mutation epoch (monotonic; feeds cache invalidation).",
		func() float64 { return float64(s.Server.Epoch()) })

	if c := s.Cache; c != nil {
		reg.CounterFunc(SeriesQCacheHits, "Query-result cache hits.",
			func() float64 { return float64(c.Stats().Hits) })
		reg.CounterFunc(SeriesQCacheMisses, "Query-result cache misses.",
			func() float64 { return float64(c.Stats().Misses) })
		reg.CounterFunc(SeriesQCacheEvictions, "Query-result cache size evictions.",
			func() float64 { return float64(c.Stats().Evictions) })
		reg.CounterFunc(SeriesQCacheInvalid, "Query-result cache epoch invalidations.",
			func() float64 { return float64(c.Stats().Invalidations) })
		reg.GaugeFunc(SeriesQCacheEntries, "Query-result cache live entries.",
			func() float64 { return float64(c.Stats().Entries) })
		reg.GaugeFunc(SeriesQCacheBytes, "Query-result cache resident bytes.",
			func() float64 { return float64(c.Stats().Bytes) })
		reg.GaugeFunc(SeriesQCacheMaxBytes, "Query-result cache byte budget.",
			func() float64 { return float64(c.Stats().MaxBytes) })
	}

	if wal := s.WAL; wal != nil {
		reg.GaugeFunc(SeriesWALPosition, "Write-ahead log position (log sequence number).",
			func() float64 { return float64(wal.Position()) })
		reg.GaugeFunc(SeriesTerm, "Promotion (fencing) term.",
			func() float64 { return float64(wal.Term()) })
	}

	// Role and replication series have dynamic labels or appear and
	// disappear with role changes (a Promote swaps the Replica out at
	// runtime), so they are collected at scrape time.
	reg.Collect(SeriesRole, "Current role (the labelled series is 1).", telemetry.KindGauge,
		func(emit func([]telemetry.Label, float64)) {
			emit([]telemetry.Label{{Key: "role", Value: s.roleName()}}, 1)
		})
	reg.Collect(SeriesReplicaConnected, "1 while the follower's replication stream is established.",
		telemetry.KindGauge, func(emit func([]telemetry.Label, float64)) {
			if r := s.replica(); r != nil {
				v := 0.0
				if r.Status().Connected {
					v = 1
				}
				emit(nil, v)
			}
		})
	reg.Collect(SeriesReplicaLag, "Follower's replication lag in records.",
		telemetry.KindGauge, func(emit func([]telemetry.Label, float64)) {
			if r := s.replica(); r != nil {
				st := r.Status()
				emit(nil, float64(st.PrimaryPosition-st.Position))
			}
		})
	reg.Collect(SeriesFollowerLag, "Per-follower replication lag in records, from the primary's view.",
		telemetry.KindGauge, func(emit func([]telemetry.Label, float64)) {
			wal := s.WAL
			if wal == nil {
				return
			}
			pos := wal.Position()
			s.replMu.Lock()
			defer s.replMu.Unlock()
			for f := range s.followers {
				lag := float64(0)
				if acked := f.acked.Load(); pos > acked {
					lag = float64(pos - acked)
				}
				emit([]telemetry.Label{{Key: "follower", Value: f.addr}}, lag)
			}
		})

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

// StatsJSON renders a Stats reply keyed by the Prometheus series names
// above — the `mkse-client stats -json` payload, machine-parseable with the
// same vocabulary a /metrics scrape uses. Series that do not apply to the
// daemon's configuration (no cache, no WAL, not a replica) are omitted,
// mirroring their absence from that daemon's exposition.
func StatsJSON(st *protocol.StatsResponse) map[string]any {
	out := map[string]any{
		SeriesDocuments: st.NumDocuments,
		SeriesShards:    st.NumShards,
		SeriesEpoch:     st.Epoch,
	}
	if st.Durable || st.Replica {
		out[SeriesWALPosition] = st.WALPosition
		out[SeriesTerm] = st.Term
	}
	if st.Replica {
		connected := 0
		if st.ReplicaConnected {
			connected = 1
		}
		out[SeriesReplicaConnected] = connected
		lag := uint64(0)
		if st.PrimaryPosition > st.WALPosition {
			lag = st.PrimaryPosition - st.WALPosition
		}
		out[SeriesReplicaLag] = lag
	}
	if st.Cache.Enabled {
		out[SeriesQCacheHits] = st.Cache.Hits
		out[SeriesQCacheMisses] = st.Cache.Misses
		out[SeriesQCacheEvictions] = st.Cache.Evictions
		out[SeriesQCacheInvalid] = st.Cache.Invalidations
		out[SeriesQCacheEntries] = st.Cache.Entries
		out[SeriesQCacheBytes] = st.Cache.Bytes
		out[SeriesQCacheMaxBytes] = st.Cache.MaxBytes
	}
	return out
}
