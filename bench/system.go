package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/harness"
	"mkse/internal/service"
	"mkse/internal/trace"
)

// node is one cloud daemon serving one partition on loopback TCP.
type node struct {
	svc *service.CloudService
	l   net.Listener
	eng *durable.Engine // nil on a memory-only node
	dir string
}

// system is the measured deployment: P cloud daemons, an owner daemon and
// one enrolled fat client, all in this process, talking over loopback TCP.
type system struct {
	w      workload
	in     *inputs
	m      *model
	nodes  []*node
	cfg    cluster.Config
	ownerL net.Listener
	client *service.Client

	setup        time.Duration // corpus generation → ready for the first timed op
	inputsTime   time.Duration // of which: corpus generation and Owner.BuildIndexes
	loadTime     time.Duration // of which: daemon start and load
	dialCluster  time.Duration // of which: DialCluster
	trapdoorWarm time.Duration // of which: first trapdoor fetch of the query set
	heapPerDoc   float64       // heap growth of the load, per stored document
}

// engineOptions states the flush policy of every durable partition: the
// log is never fsynced (device behaviour is not what this benchmark
// measures) and checkpoints are triggered by operation count, not time.
func engineOptions(checkpointEvery int) durable.Options {
	return durable.Options{Fsync: durable.FsyncNever, CheckpointEvery: checkpointEvery}
}

// heapAfterGC returns the live heap once garbage is gone. Two cycles:
// the first clears sync.Pool victims and runs finalizers, the second frees
// what they held.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp generates the seeded inputs, starts the daemons, loads the initial
// documents and enrols the client with its trapdoors warm. With traced set
// every daemon continues propagated traces (it never samples on its own).
func setUp(w workload, seed int64, outDir string, traced bool) (*system, error) {
	start := time.Now()
	in, err := generateInputs(w, seed)
	if err != nil {
		return nil, err
	}
	s := &system{w: w, in: in, m: newModel(in, w, seed), inputsTime: time.Since(start)}
	t0 := time.Now()
	if err := s.startAndLoad(outDir, traced); err != nil {
		s.close()
		return nil, err
	}
	s.loadTime = time.Since(t0)

	l, ownerAddr, err := harness.StartOwner(in.owner)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ownerL = l
	t0 = time.Now()
	s.client, err = service.DialCluster("bench-user", ownerAddr, s.cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.dialCluster = time.Since(t0)
	// The V-of-U decoy subset of every query comes from this stream, so the
	// bytes on the wire repeat with the seed.
	s.client.User().SeedQueryRNG(seed + 3)
	t0 = time.Now()
	for _, q := range in.queries {
		if err := s.client.EnsureTrapdoors(q); err != nil {
			s.close()
			return nil, err
		}
	}
	s.trapdoorWarm = time.Since(t0)
	s.setup = time.Since(start)
	return s, nil
}

func (s *system) startAndLoad(outDir string, traced bool) error {
	w, params := s.w, s.in.owner.Params()
	ids, base := initialIDs(s.in, w)
	pmap := cluster.Map{Partitions: w.partitions}

	for i := 0; i < w.partitions; i++ {
		n := &node{svc: &service.CloudService{Partition: i, Partitions: w.partitions}}
		s.nodes = append(s.nodes, n)
		if w.durable {
			n.dir = filepath.Join(outDir, fmt.Sprintf("data-%s-p%d", w.name, i))
			if err := os.RemoveAll(n.dir); err != nil {
				return err
			}
			// Bulk load without automatic checkpoints; the serving engine is
			// opened from the load's final checkpoint below.
			eng, err := durable.Open(n.dir, params, engineOptions(0))
			if err != nil {
				return err
			}
			n.eng = eng
		} else {
			srv, err := core.NewServer(params)
			if err != nil {
				return err
			}
			n.svc.Server = srv
		}
	}

	before := heapAfterGC()
	for k, id := range ids {
		si, doc := s.m.mint(id, base[k])
		n := s.nodes[pmap.Owner(id)]
		var err error
		if n.eng != nil {
			err = n.eng.Upload(si, doc)
		} else {
			err = n.svc.Server.Upload(si, doc)
		}
		if err != nil {
			return fmt.Errorf("loading %s: %w", id, err)
		}
		s.m.add(id, base[k], doc)
	}
	if w.durable {
		// The model keeps its own payload copies, so the store's share is
		// the growth across the serving engines' recovery alone.
		for _, n := range s.nodes {
			if err := n.eng.Close(); err != nil {
				return err
			}
			n.eng = nil
		}
		before = heapAfterGC()
		for _, n := range s.nodes {
			eng, err := durable.Open(n.dir, params, engineOptions(checkpointOps))
			if err != nil {
				return err
			}
			n.eng = eng
			n.svc.Server, n.svc.Store, n.svc.WAL, n.svc.Eng = eng.Server(), eng, eng, eng
			n.svc.Cache = service.NewResultCache(cacheBytes)
		}
	}
	s.heapPerDoc = float64(int64(heapAfterGC())-int64(before)) / float64(len(ids))

	s.cfg = cluster.Config{Partitions: make([]cluster.Partition, w.partitions)}
	for i, n := range s.nodes {
		if traced {
			n.svc.EnableTracing(trace.New(fmt.Sprintf("cloud-p%d", i), 0, trace.NewBuffer(64)))
		}
		l, addr, err := harness.ServeOn(n.svc.Serve)
		if err != nil {
			return err
		}
		n.l = l
		s.cfg.Partitions[i].Primary = addr
	}
	return nil
}

// quiesce waits out any checkpoint still running in the background, so
// the next measurement starts with no work in flight.
func (s *system) quiesce() error {
	for _, n := range s.nodes {
		if n.eng != nil {
			if err := n.eng.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops every daemon and removes the partitions' data directories.
func (s *system) close() {
	if s.client != nil {
		s.client.Close()
	}
	if s.ownerL != nil {
		s.ownerL.Close()
	}
	for _, n := range s.nodes {
		if n.l != nil {
			n.l.Close()
			n.svc.Drain(time.Second)
		}
		if n.eng != nil {
			n.eng.Crash()
		}
		if n.dir != "" {
			os.RemoveAll(n.dir)
		}
	}
}
