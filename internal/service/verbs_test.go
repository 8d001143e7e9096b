package service

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/telemetry"
)

// notRequests are the Message fields no verb row answers: replies, the
// envelope's error and tracing fields, and the messages that flow inside
// an open replication stream.
var notRequests = []string{
	"Error", "Trace", "Spans",
	"EnrollResp", "TrapdoorResp", "BlindDecryptResp",
	"UploadResp", "DeleteResp", "SearchResp", "SearchBatchResp", "FetchResp",
	"ReplicaSubscribeResp", "ReplicaSnapshot", "ReplicaRecords", "ReplicaAck",
	"PromoteResp", "ReconfigureResp", "StatsResp", "ClusterInfoResp",
}

// withField returns a Message with only field i set, to a zero value.
func withField(i int) *protocol.Message {
	m := &protocol.Message{}
	f := reflect.ValueOf(m).Elem().Field(i)
	switch f.Kind() {
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
	}
	return m
}

// Every request field of the wire union is answered by exactly one row of
// one daemon's verb table, and every other field is on notRequests; each
// table ends with the catch-all row, and the cloud's label set is the one
// its /metrics series have always had, in the same order.
func TestVerbTablesCoverMessage(t *testing.T) {
	cloud, owner := (&CloudService{}).verbs(), (&OwnerService{}).verbs()
	var rows []verb
	for _, table := range [][]verb{cloud, owner} {
		if last := table[len(table)-1]; last.name != "unknown" || !last.has(&protocol.Message{}) {
			t.Errorf("verb table ends with %q, want the catch-all unknown row", last.name)
		}
		rows = append(rows, table[:len(table)-1]...)
	}

	typ := reflect.TypeOf(protocol.Message{})
	for _, name := range notRequests {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notRequests names %s, which Message does not have", name)
		}
	}
	answered := make([]int, len(rows))
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var by []string
		for j, v := range rows {
			if v.has(withField(i)) {
				by = append(by, v.name)
				answered[j]++
			}
		}
		if request := !slices.Contains(notRequests, name); request && len(by) != 1 {
			t.Errorf("request field %s is answered by rows %v, want exactly one", name, by)
		} else if !request && len(by) != 0 {
			t.Errorf("%s is not a request, yet rows %v answer it", name, by)
		}
	}
	for j, v := range rows {
		if answered[j] != 1 {
			t.Errorf("row %q answers %d Message fields, want one", v.name, answered[j])
		}
	}

	want := []string{"upload", "delete", "search", "fetch", "stats", "replicasubscribe",
		"promote", "reconfigure", "clusterinfo", "unknown"}
	server, err := core.NewServer(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	(&CloudService{Server: server}).EnableMetrics(reg)
	var scraped []string
	for _, line := range strings.Split(reg.Render(), "\n") {
		if label, ok := strings.CutPrefix(line, SeriesRequestErrors+`{verb="`); ok {
			scraped = append(scraped, label[:strings.IndexByte(label, '"')])
		}
	}
	if !slices.Equal(scraped, want) {
		t.Errorf("fresh scrape has %s labels %v, want %v", SeriesRequestErrors, scraped, want)
	}
}

// A frame no row claims — an empty envelope, or a reply sent as a request —
// is answered with each daemon's unsupported-request error, and the cloud
// counts it under verb="unknown".
func TestUnknownFramesAnswered(t *testing.T) {
	d := metricsDeployment(t)
	frames := []*protocol.Message{
		{},
		{SearchResp: &protocol.SearchResponse{Matches: []protocol.MatchWire{{DocID: "d", Rank: 1}}}},
	}
	for _, daemon := range []struct{ name, addr string }{{"cloud", d.cloudAddr}, {"owner", d.ownerAddr}} {
		for i, m := range frames {
			resp := exchange(t, daemon.addr, m)
			if want := daemon.name + ": unsupported request"; resp.Error == nil || resp.Error.Text != want {
				t.Errorf("%s answered frame %d with %+v, want the error %q", daemon.name, i, resp, want)
			}
		}
	}
	got := d.reg.Render()
	for _, want := range []string{
		`mkse_request_duration_seconds_count{verb="unknown"} 2`,
		`mkse_request_errors_total{verb="unknown"} 2`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
