package experiments

import (
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/harness"
	"mkse/internal/rank"
	"mkse/internal/service"
)

// ---------------------------------------------------------------------------
// WAL-shipping replication — follower catch-up and read fan-out (ISSUE 4)
//
// The one system sweep in this package: bench/ runs no followers, so catch-up
// ops/s and read fan-out have no row there. Everything else about the
// system's speed is bench/'s to measure.
// ---------------------------------------------------------------------------

// ReplicationPoint is one corpus-size measurement of the replication
// subsystem: how fast fresh followers drain a primary's write-ahead log
// over TCP, and how a client's read traffic spreads once they converge.
type ReplicationPoint struct {
	NumDocs  int   // uploads logged on the primary
	Deletes  int   // deletes logged on top
	WALBytes int64 // size of the shipped log

	CatchupOps int           // records each follower replayed
	Catchup    time.Duration // until every follower converged
	OpsPerSec  float64       // aggregate records/s across followers
	MBPerSec   float64       // aggregate log MB/s across followers

	PrimaryOnly   time.Duration // client: query set against the primary alone
	Fanout        time.Duration // client: same query set across the replica set
	QueriesRun    int
	ReadsPrimary  uint64   // fan-out run: reads the primary answered
	ReadsReplicas []uint64 // fan-out run: reads per follower, in start order
}

// ReplicationResult is the replication sweep.
type ReplicationResult struct {
	Replicas int
	Points   []ReplicationPoint
}

// ReplicationSweep measures WAL-shipping replication at several corpus
// sizes. For each size it loads a durably backed primary over TCP, starts
// `replicas` fresh followers that stream the whole log (bootstrapping from
// a checkpoint when the log was pruned), times their catch-up, then enrolls
// a client and runs the same query set against the primary alone and fanned
// across the converged followers, reporting where the reads landed.
func ReplicationSweep(sizes []int, replicas, queries int, seed int64) (*ReplicationResult, error) {
	if replicas < 1 {
		replicas = 1
	}
	owner, err := newExperimentOwner(rank.DefaultLevels(3, 15), seed)
	if err != nil {
		return nil, err
	}
	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	docs, indices, err := experimentCorpus(owner, maxN, seed)
	if err != nil {
		return nil, err
	}

	res := &ReplicationResult{Replicas: replicas}
	for _, n := range sizes {
		pt, err := replicationPoint(owner, docs, indices, n, replicas, queries)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// experimentCorpus generates maxN documents and their search indices.
func experimentCorpus(owner *core.Owner, maxN int, seed int64) ([]*corpus.Document, []*core.SearchIndex, error) {
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: maxN, KeywordsPerDoc: 20, Dictionary: corpus.Dictionary(2000),
		MaxTermFreq: 15, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	indices, err := owner.BuildIndexes(docs, 0)
	if err != nil {
		return nil, nil, err
	}
	return docs, indices, nil
}

func replicationPoint(owner *core.Owner, docs []*corpus.Document, indices []*core.SearchIndex, n, replicas, queries int) (*ReplicationPoint, error) {
	p := owner.Params()

	// --- Primary: durable engine behind a TCP cloud daemon -----------------
	primary, pdir, err := harness.TempEngine(p)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(pdir)
	defer primary.Crash()
	psvc := &service.CloudService{Server: primary.Server(), Store: primary, WAL: primary, HeartbeatEvery: 20 * time.Millisecond}
	pl, paddr, err := harness.ServeOn(psvc.Serve)
	if err != nil {
		return nil, err
	}
	defer pl.Close()

	pt := &ReplicationPoint{NumDocs: n, QueriesRun: queries}
	payload := make([]byte, 64)
	for i := 0; i < n; i++ {
		doc := &core.EncryptedDocument{ID: docs[i].ID, Ciphertext: payload, EncKey: payload[:16]}
		if err := primary.Upload(indices[i], doc); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i += 10 {
		if err := primary.Delete(docs[i].ID); err != nil {
			return nil, err
		}
		pt.Deletes++
	}
	pt.WALBytes = primary.Stats().WALBytes
	pt.CatchupOps = n + pt.Deletes

	// --- Followers: stream the whole log, measure convergence --------------
	type fo struct {
		eng  *durable.Engine
		rep  *service.Replica
		svc  *service.CloudService
		l    net.Listener
		addr string
		dir  string
	}
	fos := make([]*fo, replicas)
	start := time.Now()
	for i := range fos {
		eng, dir, err := harness.TempEngine(p)
		if err != nil {
			return nil, err
		}
		rep := service.StartReplica(eng, paddr, nil)
		svc := &service.CloudService{Server: eng.Server(), WAL: eng, Replica: rep, HeartbeatEvery: 20 * time.Millisecond}
		l, addr, err := harness.ServeOn(svc.Serve)
		if err != nil {
			rep.Close()
			eng.Crash()
			os.RemoveAll(dir)
			return nil, err
		}
		fos[i] = &fo{eng: eng, rep: rep, svc: svc, l: l, addr: addr, dir: dir}
		defer func(f *fo) { f.l.Close(); f.rep.Close(); f.eng.Crash(); os.RemoveAll(f.dir) }(fos[i])
	}
	target := primary.Position()
	deadline := time.Now().Add(5 * time.Minute)
	for _, f := range fos {
		for f.eng.Position() < target {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("replication: follower stuck at %d of %d", f.eng.Position(), target)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	pt.Catchup = time.Since(start)
	if secs := pt.Catchup.Seconds(); secs > 0 {
		pt.OpsPerSec = float64(pt.CatchupOps*replicas) / secs
		pt.MBPerSec = float64(pt.WALBytes) / 1e6 * float64(replicas) / secs
	}

	// --- Client read fan-out ------------------------------------------------
	osvc := &service.OwnerService{Owner: owner}
	ol, oaddr, err := harness.ServeOn(osvc.Serve)
	if err != nil {
		return nil, err
	}
	defer ol.Close()

	// The owner is shared across sweep points; enroll a distinct user each time.
	client, err := service.Dial(fmt.Sprintf("replication-bench-%d", n), oaddr, paddr)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	client.ReplicaProbeEvery = 250 * time.Millisecond

	// A small rotating query set over surviving documents; trapdoors are
	// warmed before timing so both runs pay identical owner-side costs.
	words := make([][]string, 8)
	for i := range words {
		words[i] = docs[(i*10+1)%n].Keywords()[:2]
	}
	for _, w := range words {
		if _, err := client.Search(w, 10); err != nil {
			return nil, err
		}
	}

	runQueries := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < queries; i++ {
			if _, err := client.Search(words[i%len(words)], 10); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	if pt.PrimaryOnly, err = runQueries(); err != nil {
		return nil, err
	}
	addrs := make([]string, len(fos))
	for i, f := range fos {
		addrs[i] = f.addr
	}
	if err := client.AddReadReplicas(addrs...); err != nil {
		return nil, err
	}
	if pt.Fanout, err = runQueries(); err != nil {
		return nil, err
	}
	dist := client.ReadDistribution()
	// The warm-up ran before AddReadReplicas, so "primary" includes the
	// warm-up and the primary-only run; report only the fan-out run's share.
	pt.ReadsPrimary = dist["primary"] - uint64(queries) - uint64(len(words))
	for _, f := range fos {
		pt.ReadsReplicas = append(pt.ReadsReplicas, dist[f.addr])
	}
	return pt, nil
}

// Format renders the sweep as a table.
func (r *ReplicationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WAL-shipping replication — catch-up & read fan-out (%d replicas)\n", r.Replicas)
	b.WriteString("#docs  +dels   wal-bytes  catchup-ops    catchup      ops/s     MB/s  primary-only    fan-out  reads(primary/replicas)\n")
	for _, p := range r.Points {
		reads := fmt.Sprintf("%d", p.ReadsPrimary)
		for _, rr := range p.ReadsReplicas {
			reads += fmt.Sprintf("/%d", rr)
		}
		fmt.Fprintf(&b, "%6d %6d %11d %12d %9.3fms %10.0f %8.1f %11.3fms %9.3fms  %s\n",
			p.NumDocs, p.Deletes, p.WALBytes, p.CatchupOps,
			float64(p.Catchup)/float64(time.Millisecond),
			p.OpsPerSec, p.MBPerSec,
			float64(p.PrimaryOnly)/float64(time.Millisecond),
			float64(p.Fanout)/float64(time.Millisecond),
			reads)
	}
	return b.String()
}
