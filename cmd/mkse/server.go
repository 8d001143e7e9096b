package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"time"

	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/service"
	"mkse/internal/telemetry"
)

// serverCmd is `mkse server`, the cloud daemon of Figure 1: it stores the
// encrypted documents and searchable indices a data owner uploads and
// answers anonymous search and fetch requests. It holds no key material.
// With -data every mutation is logged before it is acknowledged
// (internal/durable), -replica-of makes it a read-only follower of another
// durable server, and -partition gives it its slot in a scatter-gather
// cluster (internal/cluster).
func serverCmd(fs *flag.FlagSet) func() error {
	d := daemonFlags(fs, "server")
	var (
		levels    = levelsFlag(fs)
		listen    = fs.String("listen", ":7002", "address to listen on")
		dataDir   = fs.String("data", "", "durable engine data directory (write-ahead log + checkpoints)")
		ckptEvery = fs.Int("checkpoint-every", 4096, "mutations between background checkpoints with -data (0 = only on shutdown)")
		fsyncMode = fs.String("fsync", "interval", "WAL sync policy with -data: always, interval or never")
		replicaOf = fs.String("replica-of", "", "primary address to follow as a read-only replica (requires -data)")
		partition = fs.String("partition", "", "static cluster identity i/P: this daemon owns partition i of P (e.g. 0/2)")
		shards    = fs.Int("shards", 0, "document store shards (0 = one per core)")
		workers   = fs.Int("workers", 0, "concurrent shard scans per query (0 = auto)")
		cacheMB   = fs.Int("cache-mb", 0, "query-result cache budget in MiB (0 = disabled)")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown window for in-flight requests")
		idle      = fs.Duration("idle-timeout", 0, "disconnect clients idle between requests this long (0 = never)")
		slowQuery = fs.Duration("slow-query", 0, "log searches slower than this at WARN and keep their traces in /traces/slow (0 = disabled)")
	)
	return func() (err error) {
		if err := d.start(); err != nil {
			return err
		}
		defer d.close()
		logger := d.logger
		p, err := schemeParams(*levels)
		if err != nil {
			return err
		}
		if *replicaOf != "" && *dataDir == "" {
			return usagef("-replica-of requires -data (the follower replays the primary's log through its own durable engine)")
		}
		svc := &service.CloudService{Logger: logger, IdleTimeout: *idle, SlowQuery: *slowQuery}
		if *partition != "" {
			if svc.Partition, svc.Partitions, err = parsePartition(*partition); err != nil {
				return usageError{err}
			}
			logger.Info("cluster partition identity", "partition", svc.Partition, "partitions", svc.Partitions)
		}
		if *cacheMB > 0 {
			// Entries are validated against this server's own mutation
			// epoch, so on a follower replicated applies invalidate too.
			svc.Cache = service.NewResultCache(int64(*cacheMB) << 20)
			logger.Info("query-result cache enabled", "budget_mib", *cacheMB)
		}

		var eng *durable.Engine
		if *dataDir != "" {
			fsync, err := durable.ParseFsyncPolicy(*fsyncMode)
			if err != nil {
				return usageError{err}
			}
			eng, err = durable.Open(*dataDir, p, durable.Options{
				Shards: *shards, Workers: *workers,
				Fsync: fsync, CheckpointEvery: *ckptEvery,
				Logger: logger,
			})
			if err != nil {
				return fmt.Errorf("opening %s: %w", *dataDir, err)
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
			// Every return from here closes the engine — on a clean shutdown
			// after the drain — so the final checkpoint reflects every write
			// the daemon acknowledged.
			defer func() {
				// The promote and reconfigure verbs may have swapped or
				// cleared the replica at runtime; close whichever is live.
				if rep := svc.CurrentReplica(); rep != nil {
					rep.Close()
				}
				if cerr := eng.Close(); cerr != nil {
					err = errors.Join(err, fmt.Errorf("final checkpoint: %w", cerr))
					return
				}
				logger.Info("checkpointed on shutdown",
					"documents", eng.Server().NumDocuments(), "checkpoint_lsn", eng.Stats().CheckpointLSN)
			}()
		} else {
			server, err := core.NewServerSharded(p, *shards, *workers)
			if err != nil {
				return err
			}
			svc.Server = server
		}
		// Tracing and metrics must be wired before Serve, which reads them once.
		name := "cloud"
		if svc.Partitions > 0 {
			name = fmt.Sprintf("cloud-p%d", svc.Partition)
		}
		if tr := d.tracer(name); tr != nil {
			// Logs and /traces/slow agree on what "slow" means.
			tr.TraceBuffer().SetSlowThreshold(*slowQuery)
			svc.EnableTracing(tr)
			if eng != nil {
				eng.SetTracer(tr)
			}
			logger.Info("request tracing enabled", "sample", d.traceSample, "slow_query", *slowQuery)
		}
		err = d.startSidecar(func() telemetry.Health { return svc.Health(0) }, func(reg *telemetry.Registry) {
			svc.EnableMetrics(reg)
			if eng != nil {
				eng.EnableMetrics(reg)
			}
		})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		// A signal closes the listener; Serve then returns cleanly and the
		// shutdown below runs — the same path a programmatic close takes.
		d.onSignal(func() { l.Close() })

		logger.Info("listening", "addr", l.Addr().String(),
			"r", svc.Server.Params().R, "eta", svc.Server.Params().Eta(), "shards", svc.Server.NumShards())
		if err := svc.Serve(l); err != nil {
			return err
		}
		// Give in-flight requests the drain window before the engine closes.
		// The sidecar stays up through the drain and closes last.
		svc.Drain(*drain)
		return nil
	}
}

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
