package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"mkse/internal/service"
)

// roundStats is what one timed round reports; a run reports the median of
// each field over its rounds.
type roundStats struct {
	p50, p99, mean time.Duration // search latency
	wall           time.Duration
	calib          time.Duration
	cpu            time.Duration // process CPU time, user + system
	gcCycles       uint32
}

// opsPerSec is the round's throughput given its fixed operation count.
func (r roundStats) opsPerSec(ops int) float64 { return float64(ops) / r.wall.Seconds() }

// runStats accumulates a run's timed rounds and operation counts.
type runStats struct {
	rounds    []roundStats
	attempted int
	failed    int
	op        int // operations issued so far: the model's clock
}

// seen is one search result kept for the after-round deleted-ID check.
type seen struct {
	op      int
	matches []service.Match
}

// calibrate times a fixed pure-CPU kernel. It is reported beside the
// rounds as a reference for machine drift and is never used to normalise.
func calibrate() time.Duration {
	var block [4096]byte
	start := time.Now()
	sum := sha256.Sum256(block[:])
	for i := 0; i < 4000; i++ {
		copy(block[:], sum[:])
		sum = sha256.Sum256(block[:])
	}
	runtime.KeepAlive(sum)
	return time.Since(start)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round runs one fixed-count round from the single client goroutine:
// searches cycle over the query set, with the churn schedule's uploads and
// deletes issued in between. The deleted-ID check runs after the clock
// stops.
func (s *system) round(rs *runStats, search func([]string) ([]service.Match, error)) (roundStats, error) {
	w := s.w
	runtime.GC()
	st := roundStats{calib: calibrate()}
	lat := make([]time.Duration, 0, w.searches)
	results := make([]seen, 0, w.searches)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 1; i <= w.searches; i++ {
		q := s.in.queries[(i-1)%len(s.in.queries)]
		t0 := time.Now()
		ms, err := search(q)
		lat = append(lat, time.Since(t0))
		rs.op++
		rs.attempted++
		if err != nil {
			rs.failed++
		} else {
			results = append(results, seen{op: rs.op, matches: ms})
		}
		if w.churns() && i%w.uploadEvery == 0 {
			s.uploadNew(rs, w.uploadBatch)
		}
		if w.churns() && i%w.deleteEvery == 0 {
			s.deleteLive(rs, w.deleteBatch)
		}
	}
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st.gcCycles = ms1.NumGC - ms0.NumGC

	for _, r := range results {
		for _, m := range r.matches {
			if d, gone := s.m.deleted[m.DocID]; gone && d.op < r.op {
				return st, fmt.Errorf("search %d returned %s, deleted at operation %d", r.op, m.DocID, d.op)
			}
		}
	}
	slices.Sort(lat)
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	st.p50 = lat[len(lat)/2]
	st.p99 = lat[len(lat)*99/100]
	st.mean = sum / time.Duration(len(lat))
	return st, nil
}

// uploadNew uploads n freshly minted documents through the owner-side
// batch path. Every document counts as one attempted operation.
func (s *system) uploadNew(rs *runStats, n int) {
	items := make([]service.UploadItem, n)
	bases := make([]int, n)
	for i := range items {
		si, doc, base := s.m.mintNew()
		items[i] = service.UploadItem{Index: si, Doc: doc}
		bases[i] = base
	}
	rs.op++
	rs.attempted += n
	if err := service.UploadAllCluster(s.cfg, items); err != nil {
		rs.failed += n
		return
	}
	for i, it := range items {
		s.m.add(it.Doc.ID, bases[i], it.Doc)
	}
}

// deleteLive deletes n seeded victims from the live set.
func (s *system) deleteLive(rs *runStats, n int) {
	ids := s.m.pickVictims(n)
	rs.op++
	rs.attempted += len(ids)
	if err := service.DeleteAllCluster(s.cfg, ids); err != nil {
		rs.failed += len(ids)
		return
	}
	for _, id := range ids {
		s.m.remove(id, rs.op)
	}
}

// timedRounds discards one warm-up round on this system, then times n
// fixed-count rounds and appends them to rs.
func (s *system) timedRounds(rs *runStats, n int, search func([]string) ([]service.Match, error)) error {
	if _, err := s.round(rs, search); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		st, err := s.round(rs, search)
		if err != nil {
			return err
		}
		rs.rounds = append(rs.rounds, st)
	}
	return nil
}

// allocsPerSearch counts process-wide mallocs and allocated bytes over a
// trailing search-only round: client and daemons together, with no
// checkpoint in flight.
func (s *system) allocsPerSearch(rs *runStats) (allocs, bytes float64, err error) {
	n := s.w.allocSearches()
	if err := s.quiesce(); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		rs.op++
		rs.attempted++
		if _, err := s.client.Search(s.in.queries[i%len(s.in.queries)], topK); err != nil {
			rs.failed++
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(n), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n), nil
}

// median returns the median of a per-round statistic.
func median[T any](rounds []T, f func(T) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
