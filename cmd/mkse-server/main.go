// Command mkse-server runs the cloud-server daemon of Figure 1: it stores
// encrypted documents and searchable indices uploaded by a data owner and
// answers anonymous search/fetch requests from users. It holds no key
// material.
//
// Usage:
//
//	mkse-server -listen :7002 [-levels 1,5,10] [-shards 8] [-workers 8]
//	            [-cache-mb 256]
//	            [-data /var/lib/mkse] [-checkpoint-every 4096]
//	            [-fsync always|interval|never]
//	            [-replica-of primary:7002]
//	            [-partition 0/2]
//	            [-drain 5s] [-idle-timeout 0]
//	            [-metrics-addr :7012] [-slow-query 250ms]
//	            [-trace-sample 100]
//	            [-log-format text|json] [-log-level info]
//
// -shards splits the document store into independently locked shards
// (default: one per core) scanned concurrently by -workers goroutines per
// query; see core.Server for the architecture.
//
// -cache-mb enables the query-result cache (internal/qcache): a repeated
// query — byte-identical query vector and τ — is answered from a sharded,
// memory-bounded LRU without rescanning the store, and every upload or
// delete bumps a mutation epoch that invalidates all cached results, so no
// acknowledged mutation is ever missing from a served result. A correct
// client never repeats a query vector — every query ANDs in a fresh random
// decoy subset — so only a replay can hit, and such a hit's fast reply
// tells the server the search pattern the randomization hides. Followers
// may enable it too: replicated applies bump the follower's own epoch. The
// stats verb (mkse-client stats) reports hit/miss/eviction counters.
//
// -data enables the durable storage engine (internal/durable): every upload
// and delete is appended to a write-ahead log in the directory before it is
// acknowledged, a checkpoint is materialized in the background every
// -checkpoint-every mutations (and on shutdown) without stopping searches,
// and startup recovers the newest checkpoint plus the log tail — so a
// crash, not just a clean exit, loses at most what the -fsync policy allows
// (always: nothing; interval: the last ~100ms; never: whatever the OS had
// not written back). The directory is created on first boot. A durably
// backed server also serves its write-ahead log to followers (see below);
// no extra flag is needed on the primary.
//
// -replica-of turns the daemon into a read-only follower of another
// durably backed mkse-server: it bootstraps from the primary's newest
// checkpoint when needed, then streams and replays the primary's
// write-ahead log through its own -data directory (logging before applying,
// so the follower is itself crash-safe), answers search and fetch requests,
// rejects uploads and deletions, and reports its lag to read balancers via
// the stats verb. It requires -data and the primary's scheme
// parameters (-levels). A follower killed mid-catch-up resumes from its
// recovered position on restart; restarting it without -replica-of promotes
// it to a standalone primary over the same directory. A durably backed
// daemon also participates in automatic failover: the promote verb (issued
// by mkse-observer, or manually) flips a live follower to primary in place
// under a higher fencing term, and the reconfigure verb repoints it at a
// new primary; see internal/observer.
//
// -partition gives the daemon its static cluster identity in a partitioned
// scatter-gather deployment (internal/cluster): "-partition i/P" declares
// that this server owns the documents the doc-ID hash map assigns to index
// i out of P partitions. The identity is reported to coordinators through
// the cluster-info verb — a fat client (mkse-client -cloud) verifies
// every address in its topology at dial time — and enforced on mutations:
// uploads and deletions for documents another partition owns are rejected
// with the wrong-partition error code, so a misconfigured coordinator
// cannot fork the corpus. Followers of a partitioned primary should carry
// the same -partition value. Omitting the flag (or a 1-partition cluster)
// leaves the daemon standalone.
//
// -metrics-addr starts the telemetry sidecar (internal/telemetry) on a
// separate listener: /metrics renders the daemon's Prometheus series —
// per-verb request latency histograms, arena-scan timings, store/cache/WAL
// gauges and counters, per-follower replication lag — /healthz answers a
// role-aware readiness check (a follower with its stream down or lagging
// past budget reports 503), and /debug/pprof exposes the runtime profiles.
// -slow-query logs any search or batch slower than the threshold at WARN.
// Logs are structured (log/slog); -log-format json emits one object per
// line for shippers and -log-level debug adds a line per request.
//
// -trace-sample N enables distributed request tracing (internal/trace):
// 1 in N requests is sampled into a trace — spans for the verb dispatch,
// the arena scan, the query-cache lookup and every WAL append/fsync under
// the request — and a trace context propagated by a coordinator is always
// continued, so a sampled cluster search traces across every partition.
// Completed traces land in a bounded in-memory ring served by the
// telemetry sidecar as /traces and /traces/slow (JSON span trees; the slow
// ring keeps everything over the -slow-query threshold, including searches
// that were not sampled — those are captured as single-span traces).
// Sampled requests log their trace_id, and the slowest traced request per
// verb is exported as the mkse_request_slowest_traced_seconds series with
// its trace_id as a label. N = 1 traces everything (tests/debugging);
// 0 disables tracing entirely and costs the hot path nothing.
//
// -drain bounds the graceful-shutdown window: on SIGINT/SIGTERM the daemon
// stops accepting connections, waits up to the window for in-flight
// requests to finish, then force-closes stragglers before persisting; the
// telemetry sidecar closes last.
// -idle-timeout, when non-zero, disconnects clients that sit idle between
// requests longer than the window (replication streams are exempt), so
// leaked connections cannot pin a drain to its deadline.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"mkse/internal/cliutil"
	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/service"
	"mkse/internal/telemetry"
)

// parsePartition parses the -partition flag's "i/P" syntax into a 0-based
// partition index and the total partition count.
func parsePartition(s string) (i, p int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &p); err != nil {
		return 0, 0, fmt.Errorf("-partition %q: want i/P, e.g. 0/2", s)
	}
	if p < 1 || i < 0 || i >= p {
		return 0, 0, fmt.Errorf("-partition %q: index must satisfy 0 <= i < P", s)
	}
	return i, p, nil
}

func main() {
	d := cliutil.NewDaemon("mkse-server")
	var (
		listen    = flag.String("listen", ":7002", "address to listen on")
		levels    = flag.String("levels", "1", "comma-separated ranking thresholds (η levels)")
		dataDir   = flag.String("data", "", "durable engine data directory (write-ahead log + checkpoints)")
		ckptEvery = flag.Int("checkpoint-every", 4096, "mutations between background checkpoints with -data (0 = only on shutdown)")
		fsyncMode = flag.String("fsync", "interval", "WAL sync policy with -data: always, interval or never")
		replicaOf = flag.String("replica-of", "", "primary address to follow as a read-only replica (requires -data)")
		partition = flag.String("partition", "", "static cluster identity i/P: this daemon owns partition i of P (e.g. 0/2)")
		shards    = flag.Int("shards", 0, "document store shards (0 = one per core)")
		workers   = flag.Int("workers", 0, "concurrent shard scans per query (0 = auto)")
		cacheMB   = flag.Int("cache-mb", 0, "query-result cache budget in MiB (0 = disabled)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown window for in-flight requests")
		idle      = flag.Duration("idle-timeout", 0, "disconnect clients idle between requests this long (0 = never)")
		slowQuery = flag.Duration("slow-query", 0, "log searches slower than this at WARN and keep their traces in /traces/slow (0 = disabled)")
	)
	d.Parse()
	logger := d.Logger

	p := core.DefaultParams()
	lv, err := cliutil.ParseLevels(*levels)
	if err != nil {
		d.Exitf(2, "%v", err)
	}
	p.Levels = lv

	if *replicaOf != "" && *dataDir == "" {
		d.Exitf(2, "-replica-of requires -data (the follower replays the primary's log through its own durable engine)")
	}

	svc := &service.CloudService{Logger: logger, IdleTimeout: *idle, SlowQuery: *slowQuery}
	if *partition != "" {
		pi, pp, err := parsePartition(*partition)
		if err != nil {
			d.Exitf(2, "%v", err)
		}
		svc.Partition, svc.Partitions = pi, pp
		logger.Info("cluster partition identity", "partition", pi, "partitions", pp)
	}
	if *cacheMB > 0 {
		// Works on primaries and followers alike: entries are validated
		// against this server's own mutation epoch, so local mutations and
		// replicated applies both invalidate naturally.
		svc.Cache = service.NewResultCache(int64(*cacheMB) << 20)
		logger.Info("query-result cache enabled", "budget_mib", *cacheMB)
	}
	// persist runs on every clean shutdown path.
	var persist func()
	var eng *durable.Engine

	if *dataDir != "" {
		fsync, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			d.Exitf(2, "%v", err)
		}
		eng, err = durable.Open(*dataDir, p, durable.Options{
			Shards: *shards, Workers: *workers,
			Fsync: fsync, CheckpointEvery: *ckptEvery,
			Logger: logger,
		})
		if err != nil {
			d.Exitf(1, "opening %s: %v", *dataDir, err)
		}
		st := eng.Stats()
		logger.Info("durable engine open", "dir", *dataDir,
			"documents", eng.Server().NumDocuments(), "checkpoint_lsn", st.CheckpointLSN,
			"replayed_ops", st.ReplayedOps, "term", st.Term, "fsync", fsync.String())
		svc.Server = eng.Server()
		svc.Store = eng
		svc.WAL = eng // any durable server can feed followers
		svc.Eng = eng // enables the promote and reconfigure verbs
		if *replicaOf != "" {
			svc.Replica = service.StartReplica(eng, *replicaOf, logger)
			logger.Info("following primary (read-only)", "primary", *replicaOf, "position", eng.Position())
		}
		persist = func() {
			// The replica may have been swapped or cleared at runtime by the
			// promote and reconfigure verbs; close whichever one is live now.
			if rep := svc.CurrentReplica(); rep != nil {
				rep.Close()
			}
			if err := eng.Close(); err != nil {
				logger.Error("final checkpoint failed", "err", err)
				os.Exit(1)
			}
			logger.Info("checkpointed on shutdown",
				"documents", eng.Server().NumDocuments(), "checkpoint_lsn", eng.Stats().CheckpointLSN)
		}
	} else {
		server, err := core.NewServerSharded(p, *shards, *workers)
		if err != nil {
			d.Exitf(1, "%v", err)
		}
		svc.Server = server
	}

	// Tracing and metrics must be wired before Serve, which reads them once.
	name := "cloud"
	if svc.Partitions > 0 {
		name = fmt.Sprintf("cloud-p%d", svc.Partition)
	}
	if tr := d.Tracer(name); tr != nil {
		// Logs and /traces/slow agree on what "slow" means.
		tr.TraceBuffer().SetSlowThreshold(*slowQuery)
		svc.EnableTracing(tr)
		if eng != nil {
			eng.SetTracer(tr)
		}
		logger.Info("request tracing enabled", "sample", d.TraceSample(), "slow_query", *slowQuery)
	}
	d.StartSidecar(func() telemetry.Health { return svc.Health(0) }, func(reg *telemetry.Registry) {
		svc.EnableMetrics(reg)
		if eng != nil {
			eng.EnableMetrics(reg)
		}
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		d.Exitf(1, "%v", err)
	}
	// A signal closes the listener; Serve then returns cleanly and the
	// shutdown path below persists — the same path a programmatic listener
	// close takes, so persistence is not tied to signals alone.
	d.OnSignal(func() { l.Close() })

	logger.Info("listening", "addr", l.Addr().String(),
		"r", svc.Server.Params().R, "eta", svc.Server.Params().Eta(), "shards", svc.Server.NumShards())
	if err := svc.Serve(l); err != nil {
		d.Exitf(1, "%v", err)
	}
	// The listener is closed; give in-flight requests the drain window
	// before persisting, so the final checkpoint reflects every write the
	// daemon acknowledged. The sidecar stays up through the drain — the
	// final scrape sees the shutdown — and closes last.
	svc.Drain(*drain)
	if persist != nil {
		persist()
	}
	d.Close()
}
