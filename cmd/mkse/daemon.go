package main

import (
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"mkse/internal/service"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// traceRing is how many recent traces a daemon's trace buffer retains.
const traceRing = 256

// daemon is the scaffold the three daemons share: the -log-format,
// -log-level, -metrics-addr and -trace-sample flags, the logger, the trace
// buffer, the telemetry sidecar with its mkse_build_info gauge and /traces
// routes, and SIGINT/SIGTERM handling.
type daemon struct {
	name   string
	logger *slog.Logger // set by start

	logFormat, logLevel, metricsAddr string
	traceSample                      int
	traces                           *trace.Buffer // nil unless -trace-sample > 0
	sidecar                          *http.Server  // nil unless -metrics-addr is set
	sig                              chan os.Signal
}

// daemonFlags registers the shared daemon flags on fs. Call start once fs
// has parsed.
func daemonFlags(fs *flag.FlagSet, name string) *daemon {
	d := &daemon{name: name}
	fs.StringVar(&d.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&d.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.StringVar(&d.metricsAddr, "metrics-addr", "", "telemetry sidecar address serving /metrics, /healthz, /debug/pprof and, with -trace-sample, /traces (empty = disabled)")
	fs.IntVar(&d.traceSample, "trace-sample", 0, "sample 1 in N requests (observer: probe cycles) into traces served at /traces (1 = every one, 0 = tracing disabled)")
	return d
}

// start builds the logger — slog on stderr as text or JSON, tagged with
// the subcommand so merged multi-daemon logs stay attributable — and the
// trace buffer. A bad -log-format or -log-level is a usage error.
func (d *daemon) start() error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(d.logLevel)); err != nil {
		return usagef("invalid -log-level %q (want debug, info, warn or error)", d.logLevel)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch d.logFormat {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return usagef("invalid -log-format %q (want text or json)", d.logFormat)
	}
	d.logger = slog.New(h).With("bin", d.name)
	if d.traceSample > 0 {
		d.traces = trace.NewBuffer(traceRing)
	}
	return nil
}

// tracer returns a tracer that names this process svc in its spans and
// records into the daemon's trace buffer, or nil when tracing is disabled.
func (d *daemon) tracer(svc string) *trace.Tracer {
	if d.traces == nil {
		return nil
	}
	return trace.New(svc, d.traceSample, d.traces)
}

// startSidecar starts the telemetry sidecar when -metrics-addr is set:
// /metrics renders the mkse_build_info gauge plus whatever register (may be
// nil) adds, /healthz serves health, and /traces and /traces/slow serve the
// trace buffer when tracing is on.
func (d *daemon) startSidecar(health func() telemetry.Health, register func(*telemetry.Registry)) error {
	if d.metricsAddr == "" {
		return nil
	}
	reg := telemetry.New()
	v, c := buildStamp()
	reg.Gauge(service.SeriesBuildInfo, "Build metadata; the labelled series is always 1.",
		telemetry.Label{Key: "version", Value: v},
		telemetry.Label{Key: "commit", Value: c}).Set(1)
	if register != nil {
		register(reg)
	}
	var routes []telemetry.Route
	if d.traces != nil {
		routes = append(routes,
			telemetry.Route{Pattern: "/traces", Handler: d.traces.RecentHandler()},
			telemetry.Route{Pattern: "/traces/slow", Handler: d.traces.SlowHandler()})
	}
	srv, err := telemetry.Serve(d.metricsAddr, reg, health, d.logger, routes...)
	if err != nil {
		return err
	}
	d.sidecar = srv
	return nil
}

// onSignal logs the first SIGINT or SIGTERM and calls stop, which should
// release the subcommand's body (close its listener) so shutdown runs
// there — the same path a programmatic close takes.
func (d *daemon) onSignal(stop func()) {
	d.sig = make(chan os.Signal, 1)
	signal.Notify(d.sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if s, ok := <-d.sig; ok {
			d.logger.Info("shutting down on signal", "signal", s.String())
			stop()
		}
	}()
}

// close stops signal delivery and the sidecar, if one runs. Defer it right
// after start, so the final scrape sees the rest of the shutdown.
func (d *daemon) close() {
	if d.sig != nil {
		signal.Stop(d.sig)
		close(d.sig)
	}
	if d.sidecar != nil {
		d.sidecar.Close()
	}
}
