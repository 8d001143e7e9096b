package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"

	"mkse/internal/service"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// traceRing is how many recent traces a daemon's trace buffer retains.
const traceRing = 256

// version and commit are injected with -ldflags -X; see the package comment.
var (
	version = "dev"
	commit  = ""
)

// buildStamp returns the version and commit, backfilling the commit from
// the build's embedded VCS metadata: the -version output and the label
// values of the mkse_build_info gauge.
func buildStamp() (string, string) {
	c := commit
	if c == "" {
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					c = s.Value
					if len(c) > 12 {
						c = c[:12]
					}
				}
			}
		}
	}
	if c == "" {
		c = "unknown"
	}
	return version, c
}

// Parse parses the command line with a -version flag added, which prints
// the named binary's version line and exits 0. Every mkse command calls it
// in place of flag.Parse.
func Parse(name string) {
	printVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *printVersion {
		v, c := buildStamp()
		fmt.Printf("%s %s (commit %s, %s %s/%s)\n", name, v, c, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		os.Exit(0)
	}
}

// Daemon is the scaffold the three mkse daemons share: the -version,
// -log-format, -log-level, -metrics-addr and -trace-sample flags, the
// logger, the trace buffer, the telemetry sidecar with its mkse_build_info
// gauge and /traces routes, and SIGINT/SIGTERM handling. A daemon supplies
// only its name, its health func and its metrics registration.
type Daemon struct {
	name   string
	Logger *slog.Logger // set by Parse

	logFormat, logLevel, metricsAddr *string
	traceSample                      *int
	traces                           *trace.Buffer // nil unless -trace-sample > 0
	sidecar                          *http.Server  // nil unless -metrics-addr is set
}

// NewDaemon registers the shared flags. Define the daemon's own flags
// next, then call Parse.
func NewDaemon(name string) *Daemon {
	return &Daemon{
		name:        name,
		logFormat:   flag.String("log-format", "text", "log output format: text or json"),
		logLevel:    flag.String("log-level", "info", "minimum log level: debug, info, warn or error"),
		metricsAddr: flag.String("metrics-addr", "", "telemetry sidecar address serving /metrics, /healthz, /debug/pprof and, with -trace-sample, /traces (empty = disabled)"),
		traceSample: flag.Int("trace-sample", 0, "sample 1 in N requests (observer: probe cycles) into traces served at /traces (1 = every one, 0 = tracing disabled)"),
	}
}

// Parse parses the command line (see the package-level Parse) and builds
// Logger: slog on stderr as text or JSON, tagged bin=<name> so merged
// multi-daemon logs stay attributable. A bad -log-format or -log-level
// exits 2.
func (d *Daemon) Parse() {
	Parse(d.name)
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(*d.logLevel)); err != nil {
		d.Exitf(2, "invalid -log-level %q (want debug, info, warn or error)", *d.logLevel)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch *d.logFormat {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		d.Exitf(2, "invalid -log-format %q (want text or json)", *d.logFormat)
	}
	d.Logger = slog.New(h).With("bin", d.name)
	if *d.traceSample > 0 {
		d.traces = trace.NewBuffer(traceRing)
	}
}

// TraceSample returns the -trace-sample rate (0 = tracing disabled).
func (d *Daemon) TraceSample() int { return *d.traceSample }

// Tracer returns a tracer that names this process svc in its spans and
// records into the daemon's trace buffer, or nil when tracing is disabled.
func (d *Daemon) Tracer(svc string) *trace.Tracer {
	if d.traces == nil {
		return nil
	}
	return trace.New(svc, *d.traceSample, d.traces)
}

// StartSidecar starts the telemetry sidecar when -metrics-addr is set:
// /metrics renders the mkse_build_info gauge plus whatever register (may be
// nil) adds, /healthz serves health, and /traces and /traces/slow serve the
// trace buffer when tracing is on. A bind failure exits 1.
func (d *Daemon) StartSidecar(health func() telemetry.Health, register func(*telemetry.Registry)) {
	if *d.metricsAddr == "" {
		return
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
	srv, err := telemetry.Serve(*d.metricsAddr, reg, health, d.Logger, routes...)
	if err != nil {
		d.Exitf(1, "%v", err)
	}
	d.sidecar = srv
}

// OnSignal logs the first SIGINT or SIGTERM and calls stop, which should
// release the main goroutine (close its listener) so shutdown runs there —
// the same path a programmatic close takes.
func (d *Daemon) OnSignal(stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		d.Logger.Info("shutting down on signal", "signal", s.String())
		stop()
	}()
}

// Close stops the sidecar, if one runs. Call it last on shutdown, so the
// final scrape sees the rest of it.
func (d *Daemon) Close() {
	if d.sidecar != nil {
		d.sidecar.Close()
	}
}

// Exitf prints "<name>: <message>" to stderr and exits with code (2 for a
// usage error, 1 for a runtime failure).
func (d *Daemon) Exitf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, d.name+": "+format+"\n", args...)
	os.Exit(code)
}
