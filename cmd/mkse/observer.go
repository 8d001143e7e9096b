package main

import (
	"errors"
	"flag"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/observer"
)

// observerCmd is `mkse observer`, the failover daemon (internal/observer):
// it health-probes the -cloud primary, and when the primary stays
// unreachable for -fail-after consecutive probes it promotes the reachable
// follower with the highest replicated position under a raised fencing
// term and repoints the others at it. It keeps no state on disk.
func observerCmd(fs *flag.FlagSet) func() error {
	d := daemonFlags(fs, "observer")
	var (
		cloud        = fs.String("cloud", "", "the watched partition: primary/replica[/replica...], the replicas eligible for promotion (required)")
		probeEvery   = fs.Duration("probe-every", time.Second, "health-probe interval")
		probeTimeout = fs.Duration("probe-timeout", time.Second, "per-probe dial+roundtrip budget")
		failAfter    = fs.Int("fail-after", 3, "consecutive failed probes before failing over")
		oneshot      = fs.Bool("oneshot", false, "run one probe cycle and exit (0 = primary healthy)")
	)
	return func() error {
		topo, err := cluster.ParseTargets(*cloud)
		if err != nil || len(topo.Partitions) != 1 || len(topo.Partitions[0].Replicas) == 0 {
			return usagef("-cloud %q: want one partition with at least one replica, primary/replica[/replica...]", *cloud)
		}
		watched := topo.Partitions[0]
		if err := d.start(); err != nil {
			return err
		}
		defer d.close()
		logger := d.logger
		tracer := d.tracer("observer")
		if tracer != nil {
			logger.Info("probe tracing enabled", "sample", d.traceSample)
		}

		obs := observer.New(observer.Config{
			Primary:      watched.Primary,
			Followers:    watched.Replicas,
			ProbeEvery:   *probeEvery,
			ProbeTimeout: *probeTimeout,
			FailAfter:    *failAfter,
			Logger:       logger,
			Tracer:       tracer,
			OnFailover: func(oldPrimary, newPrimary string, term uint64) {
				logger.Info("failover complete", "old_primary", oldPrimary, "new_primary", newPrimary, "term", term)
			},
		})

		if *oneshot {
			obs.Tick()
			st := obs.Status()
			if st.ConsecFails > 0 && st.Failovers == 0 {
				return errors.New("primary " + st.Primary + " unhealthy")
			}
			logger.Info("primary healthy", "primary", st.Primary, "term", st.Term)
			return nil
		}

		if err := d.startSidecar(obs.Health, obs.EnableMetrics); err != nil {
			return err
		}
		obs.Start()
		logger.Info("watching primary", "primary", watched.Primary, "followers", len(watched.Replicas),
			"probe_every", *probeEvery, "fail_after", *failAfter)

		stopped := make(chan struct{})
		d.onSignal(func() { close(stopped) })
		<-stopped
		obs.Close()
		st := obs.Status()
		logger.Info("final topology", "primary", st.Primary, "followers", st.Followers,
			"failovers", st.Failovers, "term", st.Term)
		return nil
	}
}
