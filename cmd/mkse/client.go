package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"mkse/internal/cluster"
	"mkse/internal/service"
	"mkse/internal/trace"
)

// clientCmd is `mkse client`, the user CLI: it enrolls with the data owner,
// searches the cloud with multiple keywords, and retrieves and decrypts
// documents through the blinded protocol. Its verbs are search, trace,
// get, searchget, delete and stats; stats needs only -cloud.
func clientCmd(fs *flag.FlagSet) func() error {
	var (
		ownerAddr = fs.String("owner", "localhost:7001", "owner daemon address")
		cloudTg   = fs.String("cloud", "localhost:7002", "cloud topology primary[/replica...],... in partition order; a bare address is one partition")
		user      = fs.String("user", "cli-user", "user identity to enroll as")
		topK      = fs.Int("top", 10, "maximum matches to request (τ)")
		dialTO    = fs.Duration("dial-timeout", service.DialTimeout, "per-connection dial budget")
		asJSON    = fs.Bool("json", false, "emit stats as a JSON array, one object per partition keyed by Prometheus series names")
	)
	return func() error {
		service.DialTimeout = *dialTO
		cfg, err := cluster.ParseTargets(*cloudTg)
		if err != nil {
			return usageError{err}
		}
		args := fs.Args()
		if len(args) >= 1 && args[0] == "stats" {
			// Operator introspection: a raw dial to each partition, no owner
			// connection or user enrollment needed.
			return printStats(cfg, *asJSON)
		}
		if len(args) < 2 || !slices.Contains([]string{"search", "trace", "get", "searchget", "delete"}, args[0]) {
			return usagef("want a verb: search|trace|searchget <kw...>, get|delete <docID>, or stats; got %q", args)
		}

		client, err := service.DialCluster(*user, *ownerAddr, cfg)
		if err != nil {
			return err
		}
		defer client.Close()

		switch args[0] {
		case "search":
			matches, err := client.Search(args[1:], *topK)
			if err := partialOK(os.Stderr, err); err != nil {
				return fmt.Errorf("search: %w", err)
			}
			printMatches(matches)
		case "trace":
			// A one-shot tracer: rate 0 means nothing else is sampled, and
			// TraceSearch forces this one request on. No buffer — the
			// assembled spans come back from the call itself.
			client.Tracer = trace.New("client", 0, nil)
			matches, spans, err := client.TraceSearch(args[1:], *topK)
			if err := partialOK(os.Stderr, err); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			printMatches(matches)
			fmt.Println()
			fmt.Print(trace.FormatTree(spans))
		case "get":
			pt, err := client.Retrieve(args[1])
			if err != nil {
				return fmt.Errorf("retrieve: %w", err)
			}
			os.Stdout.Write(pt)
		case "searchget":
			matches, err := client.Search(args[1:], 1)
			if err := partialOK(os.Stderr, err); err != nil {
				return fmt.Errorf("search: %w", err)
			}
			if len(matches) == 0 {
				fmt.Println("no matches")
				return nil
			}
			fmt.Fprintf(os.Stderr, "best match: %s (rank %d)\n", matches[0].DocID, matches[0].Rank)
			pt, err := client.Retrieve(matches[0].DocID)
			if err != nil {
				return fmt.Errorf("retrieve: %w", err)
			}
			os.Stdout.Write(pt)
		case "delete":
			if err := client.Delete(args[1]); err != nil {
				return fmt.Errorf("delete: %w", err)
			}
			fmt.Fprintf(os.Stderr, "deleted %s\n", args[1])
		}
		return nil
	}
}

// partialOK reports a *cluster.PartialError on w as a warning and returns
// nil: the merged matches then cover the surviving partitions, and the
// warning names the ones they are missing. Any other error is returned.
func partialOK(w io.Writer, err error) error {
	var partial *cluster.PartialError
	if errors.As(err, &partial) {
		fmt.Fprintf(w, "mkse client: warning: %v\n", partial)
		return nil
	}
	return err
}

func printMatches(matches []service.Match) {
	if len(matches) == 0 {
		fmt.Println("no matches")
		return
	}
	fmt.Printf("%-4s %-30s\n", "rank", "document")
	for _, m := range matches {
		fmt.Printf("%-4d %-30s\n", m.Rank, m.DocID)
	}
}

// printStats prints every partition's stats reply, as text or (with -json)
// as a JSON array of per-partition objects keyed by series name.
func printStats(cfg cluster.Config, asJSON bool) error {
	parts, err := service.FetchClusterStats(cfg)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if asJSON {
		out := make([]map[string]any, len(parts))
		for i, st := range parts {
			out[i] = service.StatsJSON(st)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	documents := 0
	for i, st := range parts {
		fmt.Printf("partition %d (%s)\n", i, cfg.Partitions[i].Primary)
		service.WriteStats(os.Stdout, st)
		documents += st.NumDocuments
	}
	fmt.Printf("cluster        %d partitions, %d documents\n", len(parts), documents)
	return nil
}
