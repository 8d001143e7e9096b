package observer

import (
	"testing"

	"mkse/internal/trace"
)

// Every sampled probe cycle must land one background trace — an
// observer.tick root with a probe child — in the tracer's buffer, whether
// the probe succeeded or not.
func TestTickRecordsBackgroundTrace(t *testing.T) {
	buf := trace.NewBuffer(16)
	o := New(Config{
		Primary:   "127.0.0.1:1", // nothing listens there; the probe fails fast
		Followers: []string{"127.0.0.1:2"},
		FailAfter: 100, // never escalate to a failover in this test
		Tracer:    trace.New("observer", 1, buf),
	})
	o.Tick()
	o.Tick()

	traces := buf.Recent(10)
	if len(traces) != 2 {
		t.Fatalf("sampled %d tick traces, want 2", len(traces))
	}
	for _, tr := range traces {
		r := tr.Root()
		if r == nil || r.Name != "observer.tick" {
			t.Fatalf("tick trace mis-rooted: %+v", tr)
		}
		if len(r.Attrs) != 2 || r.Attrs[0] != (trace.Attr{Key: "primary", Value: "127.0.0.1:1"}) || r.Attrs[1].Key != "outcome" {
			t.Fatalf("tick root attributes %+v, want primary then outcome", r.Attrs)
		}
		if outcome := r.Attrs[1].Value; outcome != "probe-failed" {
			t.Errorf("tick against a dead primary recorded outcome %q, want probe-failed", outcome)
		}
		var probe bool
		for _, sp := range tr.Spans {
			if sp.Name == "probe" && sp.Parent == r.ID {
				probe = true
			}
		}
		if !probe {
			t.Errorf("tick trace missing probe child: %+v", tr.Spans)
		}
	}
}
