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
//	mkse-client -owner ... -cloud host1:7002,host2:7002 -user alice \
//	            search cloud encrypted ranked
//	mkse-client -owner ... -cloud ... -user alice trace cloud encrypted
//
// Subcommands: search <kw...>, get <docID>, searchget <kw...> (search then
// retrieve the best match), delete <docID>, trace <kw...> (search with its
// distributed trace forced on: prints the matches, then the assembled
// cross-daemon span tree — coordinator, per-partition fan-out, and every
// span the servers echoed back, with durations and attributes; the servers
// need no -trace-sample flag, a propagated sampled context is always
// continued), stats (one round trip per partition of server
// introspection; needs only -cloud, no enrollment). stats prints each
// partition's state series — documents, shards, epoch, WAL position, term,
// replication lag, query-result cache counters — as the `name value` lines
// a /metrics scrape of that daemon shows, then a `cluster` line with the
// partition count and the total document count. With -json, stats prints
// a JSON array with one object per partition, keyed by the same series
// names.
//
// -cloud names the topology: a comma-separated partition list, each
// element "primary[/replica...]", in partition order (element i must be the
// daemon started with -partition i/P). A bare address is one partition.
// Searches scatter to every partition and gather into the exact order a
// single server would return; get and delete route to the partition owning
// the document ID. When a partition is unreachable the client falls back
// to its listed replicas, and failing that reports which partitions the
// (partial) result is missing.
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
		cloudTg   = flag.String("cloud", "localhost:7002", "cloud topology primary[/replica...],... in partition order; a bare address is one partition")
		user      = flag.String("user", "cli-user", "user identity to enroll as")
		topK      = flag.Int("top", 10, "maximum matches to request (τ)")
		dialTO    = flag.Duration("dial-timeout", service.DialTimeout, "per-connection dial budget")
		asJSON    = flag.Bool("json", false, "emit stats as a JSON array, one object per partition keyed by Prometheus series names")
	)
	cliutil.Parse("mkse-client")
	service.DialTimeout = *dialTO
	cfg, err := cluster.ParseTargets(*cloudTg)
	if err != nil {
		log.Fatalf("mkse-client: %v", err)
	}
	args := flag.Args()
	if len(args) >= 1 && args[0] == "stats" {
		// Operator introspection: a raw dial to each partition, no owner
		// connection or user enrollment needed.
		printStats(cfg, *asJSON)
		return
	}
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mkse-client [flags] search|trace|get|searchget|delete <args...> | stats")
		os.Exit(2)
	}

	client, err := service.DialCluster(*user, *ownerAddr, cfg)
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

// printStats prints every partition's stats reply, as text or (with -json)
// as a JSON array of per-partition objects keyed by series name.
func printStats(cfg cluster.Config, asJSON bool) {
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
	documents := 0
	for i, st := range parts {
		fmt.Printf("partition %d (%s)\n", i, cfg.Partitions[i].Primary)
		service.WriteStats(os.Stdout, st)
		documents += st.NumDocuments
	}
	fmt.Printf("cluster        %d partitions, %d documents\n", len(parts), documents)
}
