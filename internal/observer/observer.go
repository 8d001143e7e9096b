// Package observer is the failover daemon's brain, modeled on the Data
// Guard fast-start-failover observer: a third party that health-probes the
// primary cloud daemon, and when the primary stays unreachable past a
// consecutive-failure threshold, elects the lowest-lag reachable follower,
// promotes it (raising the cluster's fencing term), and repoints the
// surviving followers at it. An old primary that later resurrects is
// reconfigured into a follower of the new primary; its fenced log tail is
// discarded by the replication layer's divergence rules.
//
// The observer is deliberately stateless across restarts: everything it
// needs — positions, terms, roles — is re-learned by probing, and every
// action it takes (Promote, Reconfigure) is idempotent or term-guarded on
// the receiving side, so a crashed observer can simply be restarted.
package observer

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"mkse/internal/protocol"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// Config tunes an Observer. Primary and Followers are required.
type Config struct {
	// Primary is the cloud daemon currently accepting writes.
	Primary string
	// Followers are the replica daemons eligible for promotion.
	Followers []string
	// ProbeEvery is the health-probe interval (0 = 1s).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each probe's dial plus round trip (0 = 1s).
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive failed primary probes trigger a
	// failover (0 = 3). One failed probe is routine — a GC pause, a dropped
	// packet; only a sustained outage may cost the primary its role.
	FailAfter int
	// Logger, if set, receives probe and failover notices.
	Logger *slog.Logger
	// Tracer, if set, head-samples probe cycles into background traces — an
	// "observer.tick" root with a "probe" child — landing in the tracer's
	// buffer, so a sidecar /traces scrape shows what the observer has been
	// doing and how long its probes take.
	Tracer *trace.Tracer
	// OnFailover, if set, is called after each completed promotion.
	OnFailover func(oldPrimary, newPrimary string, term uint64)
}

// Status is a point-in-time view of the observer's world.
type Status struct {
	Primary        string
	Followers      []string // sorted
	Failovers      int      // promotions performed
	ConsecFails    int      // current consecutive failed primary probes
	Term           uint64   // highest promotion term observed or issued
	PendingRepoint []string // followers not yet repointed at the new primary
	PendingDemote  []string // old primaries not yet reconfigured into followers
}

// Observer watches one primary and its followers. Create with New, start
// the probe loop with Start, stop with Close.
type Observer struct {
	cfg Config

	mu        sync.Mutex
	primary   string
	followers map[string]bool
	fails     int
	failovers int
	term      uint64
	repoint   map[string]bool // Reconfigure failed; retry while healthy
	demote    map[string]bool // old primaries to reconfigure when reachable

	// afterPromote, when set (by tests), runs after a successful Promote and
	// before the survivors are repointed — the window where a second fault
	// (the new primary dying mid-failover) is nastiest.
	afterPromote func(newPrimary string)

	// Counters set by EnableMetrics; nil-safe when disabled.
	probeFailures *telemetry.Counter
	failoverCount *telemetry.Counter
	promotions    *telemetry.Counter

	done chan struct{}
	wg   sync.WaitGroup
}

// EnableMetrics registers the observer's series on reg: probe-failure,
// failover and promotion counters, and scrape-time gauges for the highest
// term seen, the consecutive-failure streak, and the pending repoint and
// demote backlogs. Call it once, before Start.
func (o *Observer) EnableMetrics(reg *telemetry.Registry) {
	o.probeFailures = reg.Counter("mkse_observer_probe_failures_total",
		"Failed primary health probes.")
	o.failoverCount = reg.Counter("mkse_observer_failovers_total",
		"Completed failovers (a replacement primary is installed).")
	o.promotions = reg.Counter("mkse_observer_promotions_total",
		"Promote verbs issued (adoptions of an already-promoted peer not included).")
	reg.GaugeFunc("mkse_observer_term", "Highest promotion term observed or issued.",
		func() float64 { return float64(o.Status().Term) })
	reg.GaugeFunc("mkse_observer_consecutive_failures",
		"Current consecutive failed primary probes (failover triggers at the -fail-after threshold).",
		func() float64 { return float64(o.Status().ConsecFails) })
	reg.GaugeFunc("mkse_observer_pending_repoints",
		"Followers not yet repointed at the current primary.",
		func() float64 { return float64(len(o.Status().PendingRepoint)) })
	reg.GaugeFunc("mkse_observer_pending_demotes",
		"Old primaries not yet reconfigured into followers.",
		func() float64 { return float64(len(o.Status().PendingDemote)) })
}

// New builds an observer over the given topology.
func New(cfg Config) *Observer {
	o := &Observer{
		cfg:       cfg,
		primary:   cfg.Primary,
		followers: make(map[string]bool, len(cfg.Followers)),
		repoint:   make(map[string]bool),
		demote:    make(map[string]bool),
		done:      make(chan struct{}),
	}
	for _, f := range cfg.Followers {
		o.followers[f] = true
	}
	return o
}

// Start launches the probe loop in the background.
func (o *Observer) Start() {
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		t := time.NewTicker(o.probeEvery())
		defer t.Stop()
		for {
			select {
			case <-o.done:
				return
			case <-t.C:
				o.Tick()
			}
		}
	}()
}

// Close stops the probe loop.
func (o *Observer) Close() {
	select {
	case <-o.done:
	default:
		close(o.done)
	}
	o.wg.Wait()
}

// Health reports the observer's /healthz payload. A running observer is
// ready by definition — it exists to act on outages, not avoid them — so
// readiness only reflects process liveness; the detail narrates an
// in-progress escalation or cleanup backlog for humans.
func (o *Observer) Health() telemetry.Health {
	st := o.Status()
	h := telemetry.Health{Ready: true, Role: "observer", Term: st.Term}
	switch {
	case st.ConsecFails > 0:
		h.Detail = fmt.Sprintf("primary %s failing probes (%d consecutive)", st.Primary, st.ConsecFails)
	case len(st.PendingRepoint)+len(st.PendingDemote) > 0:
		h.Detail = fmt.Sprintf("%d repoint(s) and %d demotion(s) pending", len(st.PendingRepoint), len(st.PendingDemote))
	}
	return h
}

// Status reports the observer's current view.
func (o *Observer) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Status{
		Primary:        o.primary,
		Followers:      sortedKeys(o.followers),
		Failovers:      o.failovers,
		ConsecFails:    o.fails,
		Term:           o.term,
		PendingRepoint: sortedKeys(o.repoint),
		PendingDemote:  sortedKeys(o.demote),
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Tick runs one probe cycle: check the primary, escalate to failover after
// FailAfter consecutive failures, and retry any pending repoints and
// demotions while healthy. Exported so `mkse-observer -oneshot` and tests
// can drive the observer without the ticker.
func (o *Observer) Tick() {
	o.mu.Lock()
	primary := o.primary
	o.mu.Unlock()

	ctx, root := o.cfg.Tracer.StartRequest(context.Background(), "observer.tick", false)
	root.SetAttr("primary", primary)
	outcome := "healthy"
	defer func() {
		root.SetAttr("outcome", outcome)
		root.End()
	}()

	sw := trace.StartTimer(ctx, "probe", nil)
	st, err := o.probe(primary)
	sw.Stop()
	if err == nil {
		o.mu.Lock()
		o.fails = 0
		if st.Term > o.term {
			o.term = st.Term
		}
		o.mu.Unlock()
		o.retryPending()
		return
	}

	o.mu.Lock()
	o.fails++
	fails := o.fails
	o.mu.Unlock()
	o.probeFailures.Inc()
	outcome = "probe-failed"
	o.logf("observer: primary %s unreachable (%d/%d): %v", primary, fails, o.failAfter(), err)
	if fails >= o.failAfter() {
		outcome = "failover"
		o.failover(primary)
	}
}

// candidate is one follower's probe result during an election.
type candidate struct {
	addr string
	st   *protocol.StatsResponse
}

// failover elects and promotes a replacement for the dead primary. Any step
// that fails leaves the observer's state untouched past what already
// happened remotely — the next tick re-probes and retries, and the remote
// verbs are idempotent or term-guarded, so a half-done failover converges
// instead of compounding.
func (o *Observer) failover(deadPrimary string) {
	o.mu.Lock()
	followers := sortedKeys(o.followers)
	knownTerm := o.term
	o.mu.Unlock()

	// Probe the field. A follower that is already primary at a newer term
	// means a previous failover's promote landed but its acknowledgement was
	// lost (or another observer acted): adopt it instead of double-promoting.
	var cands []candidate
	var adopted *candidate
	maxTerm := knownTerm
	for _, addr := range followers {
		st, err := o.probe(addr)
		if err != nil {
			o.logf("observer: follower %s unreachable during election: %v", addr, err)
			continue
		}
		if st.Term > maxTerm {
			maxTerm = st.Term
		}
		if st.Durable && !st.Replica && st.Term > knownTerm {
			if adopted == nil || st.Term > adopted.st.Term {
				adopted = &candidate{addr: addr, st: st}
			}
			continue
		}
		if !st.Durable {
			o.logf("observer: follower %s is not durable; skipping it in the election", addr)
			continue
		}
		cands = append(cands, candidate{addr: addr, st: st})
	}

	var newPrimary string
	var newTerm uint64
	switch {
	case adopted != nil:
		newPrimary, newTerm = adopted.addr, adopted.st.Term
		o.logf("observer: adopting %s, already promoted at term %d", newPrimary, newTerm)
	case len(cands) == 0:
		o.logf("observer: no reachable follower to promote; will retry")
		return
	default:
		// Lowest lag wins — the candidate whose log kept the most
		// acknowledged writes. Candidates are probed in sorted address
		// order, so a strict > keeps the lexicographically smallest address
		// on ties, making the election deterministic.
		best := cands[0]
		for _, c := range cands[1:] {
			if c.st.WALPosition > best.st.WALPosition {
				best = c
			}
		}
		newPrimary, newTerm = best.addr, maxTerm+1
		if _, err := o.rpcPromote(newPrimary, newTerm); err != nil {
			o.logf("observer: promoting %s to term %d failed: %v; will retry", newPrimary, newTerm, err)
			return
		}
		o.promotions.Inc()
		o.logf("observer: promoted %s to primary at term %d", newPrimary, newTerm)
	}
	if o.afterPromote != nil {
		o.afterPromote(newPrimary)
	}

	// Commit the new topology, then repoint the survivors. Repoint failures
	// go to the pending set and are retried on every healthy tick.
	o.failoverCount.Inc()
	o.mu.Lock()
	o.failovers++
	o.fails = 0
	o.term = newTerm
	o.primary = newPrimary
	delete(o.followers, newPrimary)
	delete(o.repoint, newPrimary)
	o.demote[deadPrimary] = true
	survivors := sortedKeys(o.followers)
	o.mu.Unlock()

	for _, addr := range survivors {
		if err := o.rpcReconfigure(addr, newPrimary, newTerm); err != nil {
			o.logf("observer: repointing %s at %s failed: %v; will retry", addr, newPrimary, err)
			o.mu.Lock()
			o.repoint[addr] = true
			o.mu.Unlock()
		}
	}
	if o.cfg.OnFailover != nil {
		o.cfg.OnFailover(deadPrimary, newPrimary, newTerm)
	}
}

// retryPending re-attempts failed repoints and waits out dead old primaries,
// reconfiguring each into a follower of the current primary the moment it
// answers. Runs only while the primary probes healthy.
func (o *Observer) retryPending() {
	o.mu.Lock()
	primary := o.primary
	term := o.term
	repoint := sortedKeys(o.repoint)
	demote := sortedKeys(o.demote)
	o.mu.Unlock()

	for _, addr := range repoint {
		if err := o.rpcReconfigure(addr, primary, term); err != nil {
			continue
		}
		o.logf("observer: repointed %s at %s", addr, primary)
		o.mu.Lock()
		delete(o.repoint, addr)
		o.mu.Unlock()
	}
	for _, addr := range demote {
		if err := o.rpcReconfigure(addr, primary, term); err != nil {
			continue
		}
		o.logf("observer: old primary %s is back; demoted it to follow %s", addr, primary)
		o.mu.Lock()
		delete(o.demote, addr)
		o.followers[addr] = true
		o.mu.Unlock()
	}
}

// --- bounded wire helpers ---
//
// Every observer action goes through protocol.Call under the probe timeout:
// an unresponsive daemon must never wedge the probe loop.

func (o *Observer) probe(addr string) (*protocol.StatsResponse, error) {
	resp, err := protocol.Call(addr, &protocol.Message{StatsReq: &protocol.StatsRequest{}}, o.probeTimeout())
	if err != nil {
		return nil, err
	}
	if resp.StatsResp == nil {
		return nil, fmt.Errorf("observer: stats response missing")
	}
	return resp.StatsResp, nil
}

func (o *Observer) rpcPromote(addr string, term uint64) (*protocol.PromoteResponse, error) {
	resp, err := protocol.Call(addr, &protocol.Message{PromoteReq: &protocol.PromoteRequest{Term: term}}, o.probeTimeout())
	if err != nil {
		return nil, err
	}
	if resp.PromoteResp == nil {
		return nil, fmt.Errorf("observer: promote response missing")
	}
	return resp.PromoteResp, nil
}

func (o *Observer) rpcReconfigure(addr, primary string, term uint64) error {
	resp, err := protocol.Call(addr, &protocol.Message{ReconfigureReq: &protocol.ReconfigureRequest{Primary: primary, Term: term}}, o.probeTimeout())
	if err != nil {
		return err
	}
	if resp.ReconfigureResp == nil {
		return fmt.Errorf("observer: reconfigure response missing")
	}
	return nil
}

func (o *Observer) probeEvery() time.Duration {
	if o.cfg.ProbeEvery > 0 {
		return o.cfg.ProbeEvery
	}
	return time.Second
}

func (o *Observer) probeTimeout() time.Duration {
	if o.cfg.ProbeTimeout > 0 {
		return o.cfg.ProbeTimeout
	}
	return time.Second
}

func (o *Observer) failAfter() int {
	if o.cfg.FailAfter > 0 {
		return o.cfg.FailAfter
	}
	return 3
}

func (o *Observer) logf(format string, args ...any) {
	if o.cfg.Logger != nil {
		o.cfg.Logger.Info(fmt.Sprintf(format, args...))
	}
}
