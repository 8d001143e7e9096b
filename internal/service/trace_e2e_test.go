package service

import (
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/faultnet"
	"mkse/internal/rank"
	"mkse/internal/trace"
)

// tracedCluster is a 2-partition loopback cluster with tracing enabled on
// every daemon before it starts serving (so no request can race the Tracer
// field under -race) and a fat client carrying its own tracer.
type tracedCluster struct {
	svcs    []*CloudService
	bufs    []*trace.Buffer
	proxies []*faultnet.Proxy
	cfg     cluster.Config
	client  *Client
	cbuf    *trace.Buffer
}

// startTracedCluster builds the cluster. proxied puts a fault proxy in front
// of every partition so tests can inject per-link latency; configure runs on
// every partition's service before it serves.
func startTracedCluster(t *testing.T, partitions int, proxied bool, configure ...func(*CloudService)) *tracedCluster {
	t.Helper()
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 16, KeywordsPerDoc: 8, Dictionary: corpus.Dictionary(100),
		MaxTermFreq: 10, ContentWords: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	tc := &tracedCluster{}
	for i := 0; i < partitions; i++ {
		server, err := core.NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		buf := trace.NewBuffer(64)
		svc := &CloudService{
			Server:     server,
			Partition:  i,
			Partitions: partitions,
			Cache:      NewResultCache(1 << 20),
		}
		// Sample rate 0: the daemon never head-samples on its own; it only
		// continues traces the coordinator propagates — so every span in the
		// buffers below is attributable to the traced search.
		svc.EnableTracing(trace.New(fmt.Sprintf("cloud-p%d", i), 0, buf))
		for _, fn := range configure {
			fn(svc)
		}
		addr := serveLoopback(t, svc.Serve)
		if proxied {
			proxy, err := faultnet.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(proxy.Close)
			tc.proxies = append(tc.proxies, proxy)
			addr = proxy.Addr()
		}
		tc.svcs = append(tc.svcs, svc)
		tc.bufs = append(tc.bufs, buf)
		tc.cfg.Partitions = append(tc.cfg.Partitions, cluster.Partition{Primary: addr})
	}
	ownerAddr := serveLoopback(t, (&OwnerService{Owner: owner}).Serve)

	var items []UploadItem
	for _, doc := range docs {
		si, enc, err := owner.Prepare(doc)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, UploadItem{Index: si, Doc: enc})
	}
	if err := UploadAllCluster(tc.cfg, items); err != nil {
		t.Fatal(err)
	}

	client, err := DialCluster("trace-user", ownerAddr, tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	tc.cbuf = trace.NewBuffer(64)
	client.Tracer = trace.New("client", 0, tc.cbuf)
	tc.client = client
	return tc
}

// spansByName indexes an assembled trace for structural assertions.
func spansByName(spans []trace.Span) map[string][]trace.Span {
	m := make(map[string][]trace.Span)
	for _, sp := range spans {
		m[sp.Name] = append(m[sp.Name], sp)
	}
	return m
}

// A forced-sample cluster search must assemble ONE trace spanning the client
// coordinator, every partition's server dispatch, and the scan + qcache work
// inside each server — the tentpole acceptance criterion.
func TestClusterTraceAssemblesCrossDaemonTree(t *testing.T) {
	tc := startTracedCluster(t, 2, false)

	matches, spans, err := tc.client.TraceSearch([]string{"word1", "word2"}, 5)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	_ = matches

	byName := spansByName(spans)
	root := byName["client:search"]
	if len(root) != 1 {
		t.Fatalf("want one client:search root, got %d in %d spans", len(root), len(spans))
	}
	if len(byName["scatter"]) != 1 {
		t.Fatalf("want one scatter span, got %d", len(byName["scatter"]))
	}
	parts := byName["partition"]
	if len(parts) != 2 {
		t.Fatalf("want 2 partition spans, got %d", len(parts))
	}
	servers := byName["server:search"]
	if len(servers) != 2 {
		t.Fatalf("want 2 server:search spans (one per partition), got %d", len(servers))
	}
	if got := len(byName["scan"]); got != 2 {
		t.Fatalf("want 2 scan spans, got %d", got)
	}
	if got := len(byName["qcache"]); got != 2 {
		t.Fatalf("want 2 qcache spans, got %d", got)
	}

	// Every span belongs to the one trace, and each server subtree hangs off
	// a partition span: the server root's parent is the span ID the
	// coordinator stamped on that partition's request.
	id := root[0].Trace
	partIDs := map[uint64]bool{}
	for _, sp := range parts {
		partIDs[sp.ID] = true
	}
	services := map[string]bool{}
	for _, sp := range spans {
		if sp.Trace != id {
			t.Fatalf("span %q carries trace %s, want %s", sp.Name, sp.Trace, id)
		}
		services[sp.Service] = true
	}
	for _, sv := range servers {
		if !partIDs[sv.Parent] {
			t.Errorf("server span from %s parented to %#x, not a partition span", sv.Service, sv.Parent)
		}
	}
	for _, want := range []string{"client", "cloud-p0", "cloud-p1"} {
		if !services[want] {
			t.Errorf("trace has no span from service %q (got %v)", want, services)
		}
	}

	// The completed trace lands in the client's buffer, and the rendered
	// tree nests coordinator → partition → server dispatch.
	recent := tc.cbuf.Recent(10)
	if len(recent) != 1 {
		t.Fatalf("client buffer holds %d traces, want 1", len(recent))
	}
	tree := trace.FormatTree(recent[0].Spans)
	for _, want := range []string{"client:search", "partition", "server:search", "scan"} {
		if !strings.Contains(tree, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, tree)
		}
	}
}

// Latency injected on one partition's link must surface in that partition's
// span — the whole point of per-partition spans is attributing tail latency
// to the right scatter leg.
func TestClusterTraceAttributesInjectedLatency(t *testing.T) {
	tc := startTracedCluster(t, 2, true)

	// Warm the connections so the delayed measurement has no dial inside it.
	if _, _, err := tc.client.TraceSearch([]string{"word1"}, 5); err != nil {
		t.Fatalf("warm-up search: %v", err)
	}

	const delay = 50 * time.Millisecond
	tc.proxies[1].SetDelay(delay)
	_, spans, err := tc.client.TraceSearch([]string{"word2", "word3"}, 5)
	if err != nil {
		t.Fatalf("traced search through delayed link: %v", err)
	}

	var durs [2]time.Duration
	for _, sp := range spans {
		if sp.Name != "partition" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "partition" {
				switch a.Value {
				case "0":
					durs[0] = sp.Duration
				case "1":
					durs[1] = sp.Duration
				}
			}
		}
	}
	if durs[0] == 0 || durs[1] == 0 {
		t.Fatalf("partition spans missing from trace: %+v", spans)
	}
	if durs[1] < delay {
		t.Errorf("delayed partition span shows %v, want >= %v", durs[1], delay)
	}
	if durs[0] >= delay {
		t.Errorf("healthy partition span shows %v — the delay leaked to the wrong leg", durs[0])
	}
}

// A search that crosses the SlowQuery threshold without being sampled must
// still land in the slow ring as a synthesized single-span trace — the
// capture-all-slow guarantee that makes every flagged tail inspectable —
// and its WARN "slow query" line must name that trace.
func TestServerSlowQueryCaptureUnsampled(t *testing.T) {
	logs := &logCapture{}
	tc := startTracedCluster(t, 1, false, func(svc *CloudService) {
		svc.SlowQuery = time.Nanosecond // every search is "slow"
		svc.Logger = slog.New(logs)
	})
	tc.bufs[0].SetSlowThreshold(time.Nanosecond)

	// Plain Search: the client tracer samples nothing (rate 0, not forced),
	// so the server sees an untraced request that exceeds the threshold.
	if _, err := tc.client.Search([]string{"word4"}, 5); err != nil {
		t.Fatalf("search: %v", err)
	}

	slow := tc.bufs[0].Slow(10)
	if len(slow) != 1 {
		t.Fatalf("slow ring holds %d traces after one over-threshold unsampled search, want 1", len(slow))
	}
	r := slow[0].Root()
	if r == nil || r.Name != "server:search" {
		t.Fatalf("slow capture mis-rooted: %+v", slow[0])
	}
	line := requestLine(t, logs, slog.LevelWarn, "slow query", "search",
		"verb", "duration", "remote", "budget", "documents", "trace_id")
	if line["trace_id"] != slow[0].ID.String() {
		t.Errorf("slow query line trace_id = %q, want the captured trace %s", line["trace_id"], slow[0].ID)
	}
}
