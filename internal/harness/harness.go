// Package harness starts partitioned mkse clusters on loopback listeners
// for tests, benchmarks and experiment sweeps: N cloud daemons each owning
// one partition of the doc-ID hash map, optionally durably backed and
// optionally trailed by read replicas streaming each primary's write-ahead
// log, with one call to tear the whole topology down again. The shared
// single-endpoint helpers (ServeOn, TempEngine) live here too, so every
// suite builds its daemons the same way.
package harness

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/service"
	"mkse/internal/trace"
)

// Options shapes a StartCluster topology.
type Options struct {
	// Durable backs every daemon with a write-ahead-logged engine in a
	// throwaway temp directory (fsync disabled). Memory-only otherwise.
	Durable bool
	// Followers starts this many read replicas per partition, each
	// streaming its primary's log. Requires Durable.
	Followers int
	// CacheMB enables each primary's query-result cache with this byte
	// budget in MiB (0 = no cache).
	CacheMB int
	// Heartbeat is the replication heartbeat interval (0 = 20ms, brisk
	// enough for tests).
	Heartbeat time.Duration
	// Logger, when set, is handed to every daemon.
	Logger *slog.Logger
	// Trace enables request tracing on every daemon before it starts
	// serving (enabling it later would race the request path). Daemons
	// never head-sample on their own (rate 0) — they only continue traces
	// a coordinator propagates, so an untraced benchmark loop stays
	// span-free while a forced-sample search assembles the full tree.
	Trace bool
}

// Node is one running cloud daemon: its service, listener and address, and —
// when durably backed — its engine, temp directory and (on a follower) its
// replication stream.
type Node struct {
	Svc  *service.CloudService
	L    net.Listener
	Addr string

	Eng *durable.Engine  // nil on a memory-only node
	Dir string           // temp dir backing Eng; "" on a memory-only node
	Rep *service.Replica // nil except on followers
}

// Cluster is a running partitioned topology: Primaries[i] owns partition i,
// Followers[i] are its read replicas.
type Cluster struct {
	P         int
	Params    core.Params
	Primaries []*Node
	Followers [][]*Node
}

// StartCluster starts a P-partition cluster on loopback listeners. Every
// daemon — primaries and followers alike — is stamped with its partition
// identity i/P, so coordinators can verify the topology and primaries
// enforce document ownership. Callers must Close the cluster.
func StartCluster(p core.Params, partitions int, opts Options) (*Cluster, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("harness: need at least 1 partition, got %d", partitions)
	}
	if opts.Followers > 0 && !opts.Durable {
		return nil, fmt.Errorf("harness: followers require a durable cluster")
	}
	hb := opts.Heartbeat
	if hb == 0 {
		hb = 20 * time.Millisecond
	}
	c := &Cluster{P: partitions, Params: p, Followers: make([][]*Node, partitions)}
	for i := 0; i < partitions; i++ {
		node, err := startNode(p, i, partitions, opts, hb, "")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("harness: partition %d: %w", i, err)
		}
		c.Primaries = append(c.Primaries, node)
		for f := 0; f < opts.Followers; f++ {
			fnode, err := startNode(p, i, partitions, opts, hb, node.Addr)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("harness: partition %d follower %d: %w", i, f, err)
			}
			c.Followers[i] = append(c.Followers[i], fnode)
		}
	}
	return c, nil
}

// startNode starts one daemon for partition i of p. A non-empty primaryAddr
// makes it a follower of that address.
func startNode(params core.Params, i, p int, opts Options, hb time.Duration, primaryAddr string) (*Node, error) {
	node := &Node{}
	svc := &service.CloudService{
		Partition:      i,
		Partitions:     p,
		HeartbeatEvery: hb,
		Logger:         opts.Logger,
	}
	if opts.CacheMB > 0 {
		svc.Cache = service.NewResultCache(int64(opts.CacheMB) << 20)
	}
	if opts.Durable {
		eng, dir, err := TempEngine(params)
		if err != nil {
			return nil, err
		}
		node.Eng, node.Dir = eng, dir
		svc.Server = eng.Server()
		svc.WAL = eng
		svc.Eng = eng
		if primaryAddr == "" {
			svc.Store = eng
		} else {
			node.Rep = service.StartReplica(eng, primaryAddr, opts.Logger)
			svc.Replica = node.Rep
		}
	} else {
		srv, err := core.NewServer(params)
		if err != nil {
			return nil, err
		}
		svc.Server = srv
	}
	if opts.Trace {
		svc.EnableTracing(trace.New(fmt.Sprintf("cloud-p%d", i), 0, trace.NewBuffer(64)))
	}
	node.Svc = svc
	l, addr, err := ServeOn(svc.Serve)
	if err != nil {
		node.close()
		return nil, err
	}
	node.L, node.Addr = l, addr
	return node, nil
}

// Config returns the topology a coordinator routes by: each partition's
// primary address, with its followers listed as read replicas.
func (c *Cluster) Config() cluster.Config {
	cfg := cluster.Config{Partitions: make([]cluster.Partition, c.P)}
	for i, n := range c.Primaries {
		cfg.Partitions[i].Primary = n.Addr
		for _, f := range c.Followers[i] {
			cfg.Partitions[i].Replicas = append(cfg.Partitions[i].Replicas, f.Addr)
		}
	}
	return cfg
}

// WaitConverged blocks until every follower has replayed its primary's log
// to the primary's current position, or the timeout elapses.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, fs := range c.Followers {
		if len(fs) == 0 {
			continue
		}
		target := c.Primaries[i].Eng.Position()
		for _, f := range fs {
			for f.Eng.Position() < target {
				if time.Now().After(deadline) {
					return fmt.Errorf("harness: partition %d follower stuck at %d of %d",
						i, f.Eng.Position(), target)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	return nil
}

// Close tears the whole topology down: listeners closed, replication
// streams stopped, engines crashed, temp directories removed. Safe on a
// partially started cluster.
func (c *Cluster) Close() {
	for i := len(c.Followers) - 1; i >= 0; i-- {
		for _, f := range c.Followers[i] {
			f.close()
		}
	}
	for _, n := range c.Primaries {
		n.close()
	}
}

func (n *Node) close() {
	if n.L != nil {
		n.L.Close()
	}
	if n.Rep != nil {
		n.Rep.Close()
	}
	if n.Eng != nil {
		n.Eng.Crash()
	}
	if n.Dir != "" {
		os.RemoveAll(n.Dir)
	}
}

// StartOwner serves an owner daemon on a loopback listener.
func StartOwner(owner *core.Owner) (net.Listener, string, error) {
	return ServeOn((&service.OwnerService{Owner: owner}).Serve)
}

// ServeOn starts a service loop on a fresh loopback listener and returns
// the listener and its address.
func ServeOn(serve func(net.Listener) error) (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() { _ = serve(l) }()
	return l, l.Addr().String(), nil
}

// TempEngine opens a throwaway durable engine in a fresh temp directory
// with fsync disabled — the standard disposable storage node for tests and
// sweeps. The caller removes the directory.
func TempEngine(p core.Params) (*durable.Engine, string, error) {
	dir, err := os.MkdirTemp("", "mkse-harness-")
	if err != nil {
		return nil, "", err
	}
	eng, err := durable.Open(dir, p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return eng, dir, nil
}
