// Package mkse is a Go implementation of the efficient and secure ranked
// multi-keyword search (MKS) scheme of Örencik & Savaş, "Efficient and
// Secure Ranked Multi-Keyword Search on Encrypted Cloud Data" (PAIS/EDBT
// Workshops 2012).
//
// # The scheme in one paragraph
//
// A data owner derives, for every keyword, a short bit index: an HMAC under
// a secret per-bin key, reduced from GF(2^d) digits to r bits (r = 448,
// d = 6 by default). A document's searchable index is the bitwise AND of
// its keywords' indices; a query index is the bitwise AND of the searched
// keywords' trapdoors plus V randomly chosen decoy-keyword trapdoors. The
// cloud server — which holds only encrypted documents, RSA-wrapped document
// keys and these opaque bit indices — matches a query against a document
// with a single r-bit comparison (every 0 of the query must be 0 in the
// document index), walks η cumulative term-frequency levels to assign a
// rank, and returns the top-τ matches. Document retrieval runs a Chaum
// blind-decryption protocol with the owner so that nobody, owner included,
// learns which document the user read.
//
// A keyword's index depends only on the keyword and its bin key, so each
// is derived once per key: the owner derives each distinct keyword of an
// index batch once (core.Owner.BuildIndexes) and keeps nothing after the
// batch, and a user memoizes the trapdoors it derives until a bin's key is
// replaced (core.User.Trapdoor). The owner's bin keys are fixed for its
// lifetime; the paper's key rotation (Section 4.3) is not implemented.
//
// # Server engine
//
// The server stores indices in sharded word-major arenas — one contiguous
// []uint64 column per (shard, ranking level, 64-bit word offset), so each
// document's index is stored once, at every level in the same layout. Each
// query is preprocessed into the few words where ¬q ≠ 0 (the only words
// Equation 3 can fail on); the level-1 screen sweeps just those columns
// with a blocked bitmap-refinement kernel: a branch-free pass over the
// first active column yields a survivor bitmask per 64 documents, and only
// surviving blocks are tested against the remaining active columns, most
// selective first. The rank walk reads each survivor's active words from
// the higher levels' columns. Searches fan out over the shards to
// persistent shard-affine workers, keep bounded top-τ heaps, and reuse
// pooled scratch so the steady-state query path is allocation-free;
// results are byte-identical to the paper's sequential scan. Every search
// is a batch: the client sends one SearchBatchRequest per partition (a
// single search is a batch of one), the daemon answers it with
// CloudService.SearchBatchWire, and core.Server.SearchBatch scans the store
// once for all of its queries. See
// core.Server and ARCHITECTURE.md ("Index arena layouts") for the layout,
// and bench/README.md for the measurements (workload scan_large runs 400k
// documents).
//
// # Persistence and crash recovery
//
// The cloud daemon's documents survive crashes, not just clean exits: a
// durable storage engine (internal/durable) appends every upload and delete
// to a CRC-framed write-ahead log before acknowledging it, with an fsync
// policy chosen per deployment (every record, on an interval, or never). A
// background checkpointer periodically materializes the server's state —
// pausing only the mutation stream for milliseconds while searches keep
// running — serializes it beside the log (internal/store's versioned
// checkpoint format, which still loads pre-engine snapshot files), and
// truncates the replayed log. Recovery loads the newest checkpoint and
// replays the log tail, tolerating the torn final record a crash mid-append
// leaves; for any crash point the recovered server's search output is
// byte-identical to a server that applied exactly the surviving operations.
// Documents can also be removed end to end: core.Server.Delete compacts the
// columnar arenas by swap-remove, and the Delete verb runs through the wire
// protocol, the daemons and the client. See bench/README.md (the durable.*
// rows) for replay-throughput and checkpoint-pause numbers.
//
// # Replication
//
// Search traffic scales horizontally with WAL-shipping read replicas. A
// follower daemon (mkse server -replica-of, or service.StartReplica over a
// durable engine) subscribes to a primary from its own log position; the
// primary bootstraps it from the newest checkpoint when the requested
// records have been pruned, then streams write-ahead-log record batches as
// mutations arrive and heartbeats when idle. The follower replays every
// record through its own durable engine — logging before applying, the
// same invariant as a primary-side mutation — so a follower killed at any
// point recovers and resumes from its acknowledged position, and can be
// promoted to primary in place (see below). Followers reject writes,
// answer searches and fetches, and report their lag (own position vs the
// primary's, as heard on the stream) through the stats verb. See
// EXPERIMENTS.md ("WAL-shipping replication") for catch-up throughput and
// fan-out numbers, and examples/replication for a runnable deployment.
//
// # Partitioned scatter-gather cluster
//
// Beyond read replicas, the corpus itself scales out across P independent
// partition primaries (internal/cluster). A static FNV-1a doc-ID hash map
// assigns every document to exactly one partition — stateless, so owner,
// client and servers all compute the same assignment with no coordination
// — and each partition is an ordinary single-node deployment underneath
// (own WAL, checkpoints, followers). mkse server -partition i/P stamps a
// daemon with its slot; primaries reject mutations for documents another
// partition owns. The client verifies each server's reported identity at
// dial time, routes Delete/Retrieve to the owning partition, and fans
// Search out to all partitions, interleaving the per-partition top-τ lists
// under the global τ-cut. Partitions are disjoint by document ID, so the
// merged result is byte-identical to one node scanning everything — proven
// by a randomized property suite down to the binary-comparison cost
// accounting. See ARCHITECTURE.md ("Cluster") and examples/cluster for a
// runnable two-partition deployment including the severed-partition
// failure path.
//
// # The client
//
// There is one client path: a single cloud daemon is a one-partition
// cluster, so Dial(user, owner, cloud) builds that topology and returns
// exactly what DialCluster returns (mkse client -cloud with a bare address
// is a one-partition topology, and prints the same scatter → partition →
// attempt trace tree).
// The client is three layers: a transport (one lazily redialed,
// deadline-bounded endpoint per daemon), a router (partition map, one
// per-partition read routine, one mutate routine, scatter/merge) and a
// crypto session (enrolment, trapdoor cache, blind decryption). The owner's
// bulk verbs and mkse client stats build the router the Client embeds, so
// an owner's upload follows a promotion as a user's delete does. Every
// exchange is bounded: PartitionTimeout for a cloud daemon, DialTimeout for
// the owner. Every read follows the same order: (1) a rotating, lag-probed replica — only
// for searches, and only if AddReadReplicas registered any, skipping
// followers that lag beyond MaxReplicaLag; (2) the partition's primary;
// (3) on a transport failure or a read-only rejection, the promoted
// survivor among that partition's replicas, retried once; (4) the
// partition's remaining replicas in order; (5) a typed
// *cluster.PartialError naming the partition, returned alongside the
// survivors' merged results. Mutations use steps 2–3 only and never touch
// a replica.
//
// # Automatic failover
//
// Every durable engine carries a monotonic fencing term, persisted in the
// write-ahead log (a control record, always fsynced, replicated in-stream)
// and in every checkpoint header. A Promote protocol verb flips a live
// follower to primary in place: stop the stream, raise and persist the
// term, accept writes. A deposed primary is fenced read-only by the first
// peer that presents a higher term, and a rejoining node whose log
// diverged past the new term's start is wiped by a checkpoint bootstrap
// instead of forking the history. The mkse observer daemon
// (internal/observer) automates the loop: it health-probes the primary,
// elects the lowest-lag reachable follower after a threshold of
// consecutive failures, promotes it, and repoints the survivors via a
// Reconfigure verb; the client follows the topology on its own, partition
// by partition (step 3 of its read order). internal/faultnet injects
// partitions and stalls for the failure-mode tests. See ARCHITECTURE.md ("Fail over")
// and examples/failover for a runnable kill-and-promote walkthrough.
//
// # Query-result caching
//
// The cloud daemon can memoize results
// (mkse server -cache-mb, internal/qcache): a sharded, memory-bounded LRU
// maps a query fingerprint (hash of the wire query vector and τ) to the
// ranked result it produced. Correctness is enforced by epoch invalidation:
// the store keeps a mutation epoch bumped by every applied upload and
// delete, entries record the epoch their scan ran at, and a lookup hits
// only at that exact epoch — so an acknowledged mutation instantly
// invalidates every cached result, and a cache can never serve a stale
// answer (property-tested against uncached scans across random
// mutate/search interleavings). A hit needs a byte-identical replay, which
// a correct client never sends: every query ANDs in a fresh random decoy
// subset (paper §4.2), so a hit means a replayed request, and its fast
// reply tells the server the search pattern the randomization hides. The
// bench measures a hit ratio of 0; the cache is slated for deletion
// (ROADMAP item 6). For the same reason a batch does not dedupe repeated
// query vectors. Followers cache against their own epoch, so replicated
// applies invalidate naturally. The stats verb
// (mkse client stats) reports hit/miss/eviction/invalidation counters. See
// bench/README.md (the qcache.* and service.searchwire_hit_us rows) for
// hit, miss and invalidation costs.
//
// # Observability
//
// Every daemon is instrumented end to end (internal/telemetry): a
// dependency-free metrics registry — atomic counters, gauges and
// fixed-bucket latency histograms in the Prometheus text exposition format
// — and an HTTP sidecar (-metrics-addr on every daemon) serving
// /metrics, a readiness-gated /healthz (503 on a fenced ex-primary or a
// lagging follower, the same judgment the cluster's own routing applies)
// and net/http/pprof. The instruments sit under the search hot path by
// design: an observation is a bucket-index computation plus two atomic
// adds, every method is nil-safe so disabled telemetry costs one nil
// check, and the steady-state scan path stays allocation-free with metrics
// enabled. Exported series cover per-verb request latency and errors, arena
// scan durations, WAL append/fsync/checkpoint latency, replication lag per
// follower, cache counters and failover activity; mkse client stats and
// -json stats print the cloud daemon's state series with the same names
// and values over the wire protocol, from the one table /metrics uses. All daemons log
// structured log/slog records (text or JSON) with a -slow-query WARN
// threshold, and the binary reports its build stamp via mkse version and
// the mkse_build_info series. Each layer has one instrumentation
// mechanism: one scan hook in core, one request seam both services serve
// through, one daemon scaffold (cmd/mkse/daemon.go) the three daemons
// share, and one stopwatch (trace.StartTimer) that feeds a timed
// stage's span and histogram together. See README.md ("Observability") for the full series table.
//
// # Distributed tracing
//
// Aggregates cannot explain a single slow query, so every request can
// also carry a trace (internal/trace): a 128-bit trace ID and per-hop
// span IDs propagated on the wire envelope, continued by each daemon and
// echoed back with the spans it recorded — coordinator scatter, each
// partition's RPC with redial and replica-fallback attempts, server verb
// dispatch, shard scan, qcache hit/miss, WAL append/fsync, checkpoint
// pause, replication apply. The client assembles one cross-daemon span
// tree per sampled search; completed traces land in bounded ring buffers
// served by the telemetry sidecar as /traces and /traces/slow JSON.
// Sampling is head-based (-trace-sample, with slow queries captured even
// when unsampled), a propagated sampled context is always honored (every
// daemon builds its tracer; -trace-sample 0 only turns off head sampling
// and the trace buffer), and
// with tracing disabled the scan path stays allocation-free. The
// mkse client trace verb runs a forced-sample search and
// pretty-prints the assembled tree; see ARCHITECTURE.md ("Tracing").
//
// # Package layout
//
// This root package is the public API: parameters, the three roles (Owner,
// CloudServer, User), an in-process System harness, and the networked
// Client/daemon types. The implementation lives in internal packages:
//
//   - internal/core — the scheme itself (index/trapdoor/query generation,
//     oblivious ranked search, blinded retrieval)
//   - internal/bitindex, internal/kdf, internal/bins — index substrates
//   - internal/blindrsa, internal/sym — cryptographic substrates
//   - internal/analysis — the Section 6/7 analytic model
//   - internal/baseline/caomrse, internal/baseline/wangcsi — the paper's
//     comparison baselines
//   - internal/durable, internal/store — the write-ahead-logged storage
//     engine and the checkpoint/snapshot format
//   - internal/qcache — the epoch-invalidated query-result cache
//   - internal/protocol, internal/service — the three-party TCP deployment,
//     including the replication stream and the one-path client
//   - internal/telemetry — the metrics registry and the
//     /metrics + /healthz + pprof sidecar
//   - internal/trace — the distributed-tracing core: span contexts,
//     samplers, ring buffers and the /traces handlers
//
// # Quickstart
//
// See examples/quickstart for a complete program:
//
//	sys, _ := mkse.NewSystem(mkse.DefaultParams())
//	_ = sys.AddDocument("report-1", []byte("the quarterly cloud revenue grew"))
//	alice, _ := sys.NewUser("alice")
//	matches, _ := sys.Search(alice, []string{"cloud", "revenue"}, 10)
//	plaintext, _ := sys.Retrieve(alice, matches[0].DocID)
//
// cmd/mkse is the one binary. Its subcommands are the two daemons of
// Figure 1 (mkse owner, mkse server), the user CLI (mkse client), the
// failover daemon (mkse observer) and the experiment driver (mkse bench),
// which regenerates every table and figure of the paper's evaluation; see
// EXPERIMENTS.md.
package mkse
