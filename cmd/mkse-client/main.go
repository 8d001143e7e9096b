// Command mkse-client is the user CLI: it enrolls with the data owner,
// searches the cloud with multiple keywords, and retrieves + decrypts
// documents through the blinded protocol.
//
// Usage:
//
//	mkse-client -owner localhost:7001 -cloud localhost:7002 -user alice \
//	            search cloud encrypted ranked
//	mkse-client -owner ... -cloud ... -user alice get doc-00042
//	mkse-client -owner ... -cloud ... -user alice searchget cloud privacy
//	mkse-client -owner ... -cloud ... -user alice delete doc-00042
//	mkse-client -cloud localhost:7002 stats
//	mkse-client -cloud localhost:7002 -json stats
//	mkse-client -owner ... -cluster host1:7002,host2:7002 -user alice \
//	            search cloud encrypted ranked
//	mkse-client -owner ... -cluster ... -user alice trace cloud encrypted
//
// Subcommands: search <kw...>, get <docID>, searchget <kw...> (search then
// retrieve the best match), delete <docID>, trace <kw...> (search with its
// distributed trace forced on: prints the matches, then the assembled
// cross-daemon span tree — coordinator, per-partition fan-out, and every
// span the servers echoed back, with durations and attributes; the servers
// need no -trace-sample flag, a propagated sampled context is always
// continued), stats (one-round-trip server introspection: document/shard
// counts, WAL position, replication lag, query-result cache counters; needs
// only -cloud, no enrollment). With -json, stats emits one JSON object
// keyed by the daemon's Prometheus series names (mkse_documents,
// mkse_wal_position, …), so scripts parse the same vocabulary a /metrics
// scrape exposes.
//
// -cloud is a one-partition -cluster: both dial the same client, and trace
// prints the same scatter → partition → attempt tree for either.
// -cluster replaces -cloud with a partitioned topology: a comma-separated
// partition list, each element "primary[/replica...]", in partition order
// (element i must be the daemon started with -partition i/P). Searches
// scatter to every partition and gather into the exact order a single
// server would return; get and delete route to the partition owning the
// document ID; stats fetches every partition and prints the per-partition
// and aggregated counters. When a partition is unreachable the client falls
// back to its listed replicas, and failing that reports which partitions
// the (partial) result is missing.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"mkse/internal/cliutil"
	"mkse/internal/cluster"
	"mkse/internal/service"
	"mkse/internal/trace"
)

func main() {
	var (
		ownerAddr = flag.String("owner", "localhost:7001", "owner daemon address")
		cloudAddr = flag.String("cloud", "localhost:7002", "cloud daemon address")
		clusterTg = flag.String("cluster", "", "partitioned topology host1[/replica],host2,... in partition order (replaces -cloud)")
		user      = flag.String("user", "cli-user", "user identity to enroll as")
		topK      = flag.Int("top", 10, "maximum matches to request (τ)")
		dialTO    = flag.Duration("dial-timeout", service.DialTimeout, "per-connection dial budget")
		asJSON    = flag.Bool("json", false, "emit stats as JSON keyed by Prometheus series names")
	)
	cliutil.Parse("mkse-client")
	service.DialTimeout = *dialTO
	args := flag.Args()
	if len(args) >= 1 && args[0] == "stats" {
		// Operator introspection: a raw dial to the cloud daemon(s), no
		// owner connection or user enrollment needed.
		if *clusterTg != "" {
			printClusterStats(*clusterTg, *asJSON)
			return
		}
		printStats(*cloudAddr, *asJSON)
		return
	}
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mkse-client [flags] search|trace|get|searchget|delete <args...> | stats")
		os.Exit(2)
	}

	var client *service.Client
	var err error
	if *clusterTg != "" {
		cfg, perr := cluster.ParseTargets(*clusterTg)
		if perr != nil {
			log.Fatalf("mkse-client: %v", perr)
		}
		client, err = service.DialCluster(*user, *ownerAddr, cfg)
	} else {
		client, err = service.Dial(*user, *ownerAddr, *cloudAddr)
	}
	if err != nil {
		log.Fatalf("mkse-client: %v", err)
	}
	defer client.Close()

	switch args[0] {
	case "search":
		matches, err := client.Search(args[1:], *topK)
		var partial *cluster.PartialError
		if errors.As(err, &partial) {
			// The merged results cover the surviving partitions; say which
			// ones they are missing rather than discarding them.
			fmt.Fprintf(os.Stderr, "mkse-client: warning: %v\n", partial)
		} else if err != nil {
			log.Fatalf("mkse-client: search: %v", err)
		}
		if len(matches) == 0 {
			fmt.Println("no matches")
			return
		}
		fmt.Printf("%-4s %-30s %s\n", "rank", "document", "")
		for _, m := range matches {
			fmt.Printf("%-4d %-30s\n", m.Rank, m.DocID)
		}
	case "trace":
		// A one-shot tracer: rate 0 means nothing else is sampled, and
		// TraceSearch forces this one request on. No buffer — the assembled
		// spans come back from the call itself.
		client.Tracer = trace.New("client", 0, nil)
		matches, spans, err := client.TraceSearch(args[1:], *topK)
		var partial *cluster.PartialError
		if errors.As(err, &partial) {
			fmt.Fprintf(os.Stderr, "mkse-client: warning: %v\n", partial)
		} else if err != nil {
			log.Fatalf("mkse-client: trace: %v", err)
		}
		if len(matches) == 0 {
			fmt.Println("no matches")
		} else {
			fmt.Printf("%-4s %-30s\n", "rank", "document")
			for _, m := range matches {
				fmt.Printf("%-4d %-30s\n", m.Rank, m.DocID)
			}
		}
		fmt.Println()
		fmt.Print(trace.FormatTree(spans))
	case "get":
		pt, err := client.Retrieve(args[1])
		if err != nil {
			log.Fatalf("mkse-client: retrieve: %v", err)
		}
		os.Stdout.Write(pt)
	case "searchget":
		matches, err := client.Search(args[1:], 1)
		if err != nil {
			log.Fatalf("mkse-client: search: %v", err)
		}
		if len(matches) == 0 {
			fmt.Println("no matches")
			return
		}
		fmt.Fprintf(os.Stderr, "best match: %s (rank %d)\n", matches[0].DocID, matches[0].Rank)
		pt, err := client.Retrieve(matches[0].DocID)
		if err != nil {
			log.Fatalf("mkse-client: retrieve: %v", err)
		}
		os.Stdout.Write(pt)
	case "delete":
		if err := client.Delete(args[1]); err != nil {
			log.Fatalf("mkse-client: delete: %v", err)
		}
		fmt.Fprintf(os.Stderr, "deleted %s\n", args[1])
	default:
		fmt.Fprintf(os.Stderr, "mkse-client: unknown subcommand %q\n", args[0])
		os.Exit(2)
	}
}

// printStats renders one cloud daemon's stats response for operators:
// aligned text by default, or (with -json) a JSON object keyed by the
// daemon's Prometheus series names.
func printStats(cloudAddr string, asJSON bool) {
	st, err := service.FetchStats(cloudAddr)
	if err != nil {
		log.Fatalf("mkse-client: stats: %v", err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(service.StatsJSON(st)); err != nil {
			log.Fatalf("mkse-client: stats: %v", err)
		}
		return
	}
	fmt.Printf("documents      %d\n", st.NumDocuments)
	fmt.Printf("shards         %d\n", st.NumShards)
	fmt.Printf("epoch          %d\n", st.Epoch)
	if st.Durable {
		fmt.Printf("wal-position   %d\n", st.WALPosition)
		fmt.Printf("term           %d\n", st.Term)
	} else {
		fmt.Printf("wal-position   - (memory-only)\n")
	}
	if st.Replica {
		fmt.Printf("replica        yes (connected=%v)\n", st.ReplicaConnected)
		fmt.Printf("primary-pos    %d (lag %d records)\n", st.PrimaryPosition, st.PrimaryPosition-st.WALPosition)
	} else {
		fmt.Printf("replica        no\n")
	}
	for _, f := range st.Followers {
		fmt.Printf("follower       %s (acked %d)\n", f.Addr, f.Acked)
	}
	c := st.Cache
	if !c.Enabled {
		fmt.Printf("cache          disabled\n")
		return
	}
	total := c.Hits + c.Misses
	rate := 0.0
	if total > 0 {
		rate = float64(c.Hits) / float64(total) * 100
	}
	fmt.Printf("cache          %d/%d bytes, %d entries\n", c.Bytes, c.MaxBytes, c.Entries)
	fmt.Printf("cache-hits     %d (%.1f%% of %d lookups)\n", c.Hits, rate, total)
	fmt.Printf("cache-misses   %d (%d epoch invalidations)\n", c.Misses, c.Invalidations)
	fmt.Printf("cache-evicted  %d\n", c.Evictions)
}

// printClusterStats renders every partition's stats plus the cluster-wide
// aggregate. With -json it emits an array of per-partition objects followed
// by no aggregate — scripts sum the same series names themselves.
func printClusterStats(targets string, asJSON bool) {
	cfg, err := cluster.ParseTargets(targets)
	if err != nil {
		log.Fatalf("mkse-client: %v", err)
	}
	parts, err := service.FetchClusterStats(cfg)
	if err != nil {
		log.Fatalf("mkse-client: stats: %v", err)
	}
	if asJSON {
		out := make([]map[string]any, len(parts))
		for i, st := range parts {
			out[i] = service.StatsJSON(st)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatalf("mkse-client: stats: %v", err)
		}
		return
	}
	agg := service.AggregateClusterStats(parts)
	for i, st := range parts {
		fmt.Printf("partition %d (%s): documents=%d shards=%d epoch=%d durable=%v\n",
			i, cfg.Partitions[i].Primary, st.NumDocuments, st.NumShards, st.Epoch, st.Durable)
	}
	fmt.Printf("cluster        %d partitions\n", agg.Partitions)
	fmt.Printf("documents      %d\n", agg.NumDocuments)
	fmt.Printf("shards         %d\n", agg.NumShards)
}
