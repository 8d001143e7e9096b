package service

import (
	"context"
	"log/slog"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// logCapture is a slog.Handler that keeps every record, so tests can assert
// the per-request log lines' level, message and key set.
type logCapture struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	c.mu.Lock()
	c.recs = append(c.recs, r.Clone())
	c.mu.Unlock()
	return nil
}

// take returns and forgets the captured records with message msg.
func (c *logCapture) take(msg string) []slog.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var got, kept []slog.Record
	for _, r := range c.recs {
		if r.Message == msg {
			got = append(got, r)
		} else {
			kept = append(kept, r)
		}
	}
	c.recs = kept
	return got
}

// requestLine asserts that exactly one msg line for verb was logged since the
// last take of msg, at level and with exactly the keys want, and returns its
// attribute values.
func requestLine(t *testing.T, c *logCapture, level slog.Level, msg, verb string, want ...string) map[string]string {
	t.Helper()
	var lines []map[string]string
	for _, r := range c.take(msg) {
		attrs := map[string]string{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		if attrs["verb"] != verb {
			continue
		}
		if r.Level != level {
			t.Errorf("%q line for %s logged at %v, want %v", msg, verb, r.Level, level)
		}
		lines = append(lines, attrs)
	}
	if len(lines) != 1 {
		t.Fatalf("want one %q line for verb %s, got %d", msg, verb, len(lines))
	}
	keys := make([]string, 0, len(lines[0]))
	for k := range lines[0] {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Errorf("%q line for %s has keys %v, want %v", msg, verb, keys, want)
	}
	return lines[0]
}

// metricsDep is a private owner+cloud pair with metrics, rate-0 tracing and
// captured logs enabled before either serves.
type metricsDep struct {
	reg                  *telemetry.Registry
	svc                  *CloudService
	ownerAddr, cloudAddr string
	docs                 []*corpus.Document
	cloudLog, ownerLog   *logCapture
}

// metricsDeployment is a private owner+cloud pair with metrics enabled —
// the shared deployment is not used because EnableMetrics mutates the
// service and the assertions below count absolute requests.
func metricsDeployment(t *testing.T) *metricsDep {
	t.Helper()
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	server, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 10, KeywordsPerDoc: 8, Dictionary: corpus.Dictionary(100),
		MaxTermFreq: 10, ContentWords: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var items []UploadItem
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, UploadItem{Index: si, Doc: enc})
	}

	d := &metricsDep{reg: telemetry.New(), docs: docs, cloudLog: &logCapture{}, ownerLog: &logCapture{}}
	d.svc = &CloudService{Server: server, Cache: NewResultCache(1 << 20), Logger: slog.New(d.cloudLog)}
	d.svc.EnableMetrics(d.reg)
	d.svc.EnableTracing(trace.New("cloud", 0, trace.NewBuffer(64)))
	ownerSvc := &OwnerService{Owner: owner, Logger: slog.New(d.ownerLog), Tracer: trace.New("owner", 0, nil)}

	d.ownerAddr = serveLoopback(t, ownerSvc.Serve)
	d.cloudAddr = serveLoopback(t, d.svc.Serve)
	if err := UploadAll(d.cloudAddr, items); err != nil {
		t.Fatal(err)
	}
	return d
}

// exchange sends one raw request and returns the reply, error replies
// included (Roundtrip would fold those into an error and drop the echoed
// spans).
func exchange(t *testing.T, addr string, m *protocol.Message) *protocol.Message {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	if err := pc.Send(m); err != nil {
		t.Fatal(err)
	}
	resp, err := pc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// One live deployment: requests flow, then the scrape must show them — the
// per-verb latency counts, the error counter on a failed fetch, the scan
// histogram fed by core, the store gauges, the role series, and an
// in-flight gauge back at zero once the requests are done. The per-request
// log lines are pinned alongside: level, message and key set for a plain
// search, a propagated-sampled search and a malformed query; and a sampled
// owner request echoes its owner:<verb> span.
func TestEnableMetricsEndToEnd(t *testing.T) {
	d := metricsDeployment(t)
	reg, logs := d.reg, d.cloudLog

	client, err := Dial("metrics-alice", d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	words := d.docs[0].Keywords()[:2]
	if _, err := client.Search(words, 5); err != nil {
		t.Fatal(err)
	}
	requestLine(t, logs, slog.LevelDebug, "request served", "search", "verb", "duration", "remote")
	if _, err := client.Retrieve("no-such-document"); err == nil {
		t.Fatal("retrieving a missing document should fail")
	}

	got := reg.Render()
	for _, want := range []string{
		`mkse_request_duration_seconds_count{verb="search"} 1`,
		`mkse_request_duration_seconds_count{verb="upload"} 10`,
		`mkse_request_errors_total{verb="fetch"} 1`,
		`mkse_request_errors_total{verb="search"} 0`,
		"mkse_requests_in_flight 0",
		"mkse_documents 10",
		"mkse_epoch ",
		`mkse_role{role="standalone"} 1`,
		"mkse_qcache_misses_total 1",
		"mkse_scan_duration_seconds_count 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// No WAL: the durable series must be absent, mirroring StatsJSON.
	for _, absent := range []string{SeriesWALPosition, SeriesTerm} {
		if strings.Contains(got, absent) {
			t.Errorf("memory-only daemon scrape contains %q", absent)
		}
	}

	// A search whose sampled context the client propagates: the server
	// continues it, logs its trace_id and keeps it as the verb's slowest
	// traced request.
	client.Tracer = trace.New("client", 0, nil)
	_, spans, err := client.TraceSearch(words, 5)
	if err != nil {
		t.Fatal(err)
	}
	line := requestLine(t, logs, slog.LevelDebug, "request served", "search", "verb", "duration", "remote", "trace_id")
	if id := spans[0].Trace.String(); line["trace_id"] != id {
		t.Errorf("request line trace_id = %q, want the propagated trace %s", line["trace_id"], id)
	}
	traced := false
	for _, l := range strings.Split(reg.Render(), "\n") {
		traced = traced || strings.HasPrefix(l, SeriesSlowestTraced+"{") &&
			strings.Contains(l, `verb="search"`) && strings.Contains(l, `trace_id="`+line["trace_id"]+`"`)
	}
	if !traced {
		t.Errorf("scrape has no %s series for the traced search %s", SeriesSlowestTraced, line["trace_id"])
	}

	// A malformed query is answered with an error and logged as a failure.
	resp := exchange(t, d.cloudAddr, &protocol.Message{SearchReq: &protocol.SearchRequest{Query: []byte{0xff}, TopK: 5}})
	if resp.Error == nil {
		t.Fatal("malformed query answered without an error")
	}
	requestLine(t, logs, slog.LevelWarn, "request failed", "search", "verb", "duration", "remote", "err")

	// A sampled owner request echoes the owner's root span on its reply.
	resp = exchange(t, d.ownerAddr, &protocol.Message{
		EnrollReq: &protocol.EnrollRequest{UserID: "metrics-mallory"},
		Trace:     &protocol.TraceContextWire{TraceHi: 1, TraceLo: 2, SpanID: 3, Sampled: true},
	})
	if resp.Error == nil {
		t.Fatal("enrollment without a public key accepted")
	}
	if len(resp.Spans) != 1 || resp.Spans[0].Name != "owner:enroll" || resp.Spans[0].ParentID != 3 ||
		resp.Spans[0].TraceHi != 1 || resp.Spans[0].TraceLo != 2 {
		t.Errorf("owner echoed %+v, want one owner:enroll span under the propagated span", resp.Spans)
	}
}

// The owner logs its requests through the same seam as the cloud: DEBUG
// "request served" for a success, WARN "request failed" with err for a
// rejection, trace_id on a sampled one — and it exports no request series.
func TestOwnerRequestLogLines(t *testing.T) {
	d := metricsDeployment(t)
	client, err := Dial("owner-log-alice", d.ownerAddr, d.cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	requestLine(t, d.ownerLog, slog.LevelDebug, "request served", "enroll", "verb", "duration", "remote")

	exchange(t, d.ownerAddr, &protocol.Message{
		EnrollReq: &protocol.EnrollRequest{UserID: "owner-log-mallory"},
		Trace:     &protocol.TraceContextWire{TraceHi: 1, TraceLo: 2, SpanID: 3, Sampled: true},
	})
	line := requestLine(t, d.ownerLog, slog.LevelWarn, "request failed", "enroll", "verb", "duration", "remote", "err", "trace_id")
	if want := (trace.TraceID{Hi: 1, Lo: 2}).String(); line["trace_id"] != want {
		t.Errorf("owner trace_id = %q, want %s", line["trace_id"], want)
	}
}

func TestHealthRoles(t *testing.T) {
	p := core.DefaultParams()
	server, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}

	s := &CloudService{Server: server}
	if h := s.Health(0); !h.Ready || h.Role != "standalone" {
		t.Errorf("standalone health = %+v, want ready standalone", h)
	}

	// A fenced ex-primary is never ready.
	s.fence(7)
	if h := s.Health(0); h.Ready || h.Role != "fenced" || h.Detail == "" {
		t.Errorf("fenced health = %+v, want unready fenced with detail", h)
	}

	// A follower whose stream is down (primary unreachable) is not ready,
	// and the detail says why.
	eng, err := durable.Open(t.TempDir(), p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r := StartReplica(eng, "127.0.0.1:1", nil)
	defer r.Close()
	f := &CloudService{Server: eng.Server(), Store: eng, WAL: eng, Eng: eng, Replica: r}
	if h := f.Health(0); h.Ready || h.Role != "follower" || !strings.Contains(h.Detail, "replication stream down") {
		t.Errorf("disconnected follower health = %+v, want unready with stream-down detail", h)
	}
}

func TestStatsJSONKeys(t *testing.T) {
	st := &protocol.StatsResponse{NumDocuments: 4, NumShards: 2, Epoch: 9}
	got := StatsJSON(st)
	for _, key := range []string{SeriesDocuments, SeriesShards, SeriesEpoch} {
		if _, ok := got[key]; !ok {
			t.Errorf("missing %q", key)
		}
	}
	// Memory-only, no cache: the conditional series are omitted, as on a
	// scrape of the same daemon.
	for _, key := range []string{SeriesWALPosition, SeriesTerm, SeriesReplicaLag, SeriesQCacheHits} {
		if _, ok := got[key]; ok {
			t.Errorf("memory-only stats should omit %q", key)
		}
	}

	st.Durable = true
	st.WALPosition = 42
	st.Term = 3
	st.Replica = true
	st.ReplicaConnected = true
	st.PrimaryPosition = 44
	st.Cache.Enabled = true
	st.Cache.Hits = 5
	got = StatsJSON(st)
	if got[SeriesWALPosition] != 42.0 || got[SeriesTerm] != 3.0 {
		t.Errorf("durable series wrong: %v", got)
	}
	if got[SeriesReplicaLag] != 2.0 || got[SeriesReplicaConnected] != 1.0 {
		t.Errorf("replica series wrong: %v", got)
	}
	if got[SeriesQCacheHits] != 5.0 {
		t.Errorf("cache series wrong: %v", got)
	}
}
