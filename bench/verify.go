package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/service"
)

// gate is the correctness check that follows the measurements and is part
// of none of them. It holds the cluster to the model three ways:
//
//   - wire level: each gate query, scanned on every partition and merged,
//     must be byte-identical to a single-shard reference server holding the
//     model's live set, at τ = topK and at τ = 0;
//   - through the client: a τ = 0 search must return every live document
//     whose keywords include the query's, and nothing that is not live;
//   - durable partitions only: after Sync, Crash and a fresh Open, each
//     partition holds exactly the model's live documents.
func (s *system) gate(rs *runStats, seed int64) error {
	if rs.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", rs.failed, rs.attempted)
	}
	if err := s.quiesce(); err != nil {
		return err
	}
	params := s.in.owner.Params()
	ref, err := core.NewServerSharded(params, 1, 1)
	if err != nil {
		return err
	}
	for id, st := range s.m.live {
		si := &core.SearchIndex{DocID: id, Levels: s.in.indices[st.base].Levels}
		if err := ref.Upload(si, st.doc); err != nil {
			return err
		}
	}
	refSvc := &service.CloudService{Server: ref}

	queries := s.gateQueries(seed)
	for _, q := range queries {
		if err := s.client.EnsureTrapdoors(q); err != nil {
			return err
		}
	}
	for qi, q := range queries {
		v, err := s.client.User().BuildQuery(q)
		if err != nil {
			return err
		}
		raw, err := v.MarshalBinary()
		if err != nil {
			return err
		}
		for _, tau := range []int{topK, 0} {
			req := &protocol.SearchRequest{Query: raw, TopK: tau}
			want, err := refSvc.SearchWire(req)
			if err != nil {
				return err
			}
			lists := make([][]protocol.MatchWire, len(s.nodes))
			for i, n := range s.nodes {
				resp, err := n.svc.SearchWire(req)
				if err != nil {
					return err
				}
				lists[i] = resp.Matches
			}
			if got := cluster.MergeWire(lists, tau); !gobEqual(got, want.Matches) {
				return fmt.Errorf("gate query %d %v at τ=%d: merged result differs from the reference scan", qi, q, tau)
			}
		}
	}

	// expected[qi] lists the live documents that truly contain query qi.
	matches := make([][]bool, len(queries))
	for qi, q := range queries {
		matches[qi] = make([]bool, len(s.in.docs))
		for b := range s.in.docs {
			matches[qi][b] = s.m.hasAll(b, q)
		}
	}
	expected := make([][]string, len(queries))
	for id, st := range s.m.live {
		for qi := range queries {
			if matches[qi][st.base] {
				expected[qi] = append(expected[qi], id)
			}
		}
	}
	truths := 0
	for qi, q := range queries {
		got, err := s.client.Search(q, 0)
		if err != nil {
			return fmt.Errorf("gate search %v: %w", q, err)
		}
		have := make(map[string]bool, len(got))
		for _, m := range got {
			if _, live := s.m.live[m.DocID]; !live {
				return fmt.Errorf("gate search %v returned %s, which is not live", q, m.DocID)
			}
			have[m.DocID] = true
		}
		truths += len(expected[qi])
		for _, id := range expected[qi] {
			if !have[id] {
				return fmt.Errorf("gate search %v missed %s (false negative)", q, id)
			}
		}
	}

	if truths < gateQueries/2 {
		return fmt.Errorf("gate queries have only %d live true matches: the gate would prove nothing", truths)
	}

	if s.w.durable {
		return s.gateRecovery()
	}
	return nil
}

// gateQueries draws the gate's queries, each two keywords of one built
// document. On a churning workload the first quarter comes from documents
// the run deleted and the second from documents it uploaded, so the checks
// bite where the state changed; the rest come from documents with a live
// copy. Only a query drawn from a deleted document may lack a true match.
func (s *system) gateQueries(seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed + 4))
	liveBase := make([]bool, len(s.in.docs))
	for _, st := range s.m.live {
		liveBase[st.base] = true
	}
	var bases []int
	deleted := make([]string, 0, len(s.m.deleted))
	for id := range s.m.deleted {
		deleted = append(deleted, id)
	}
	slices.Sort(deleted)
	for _, id := range deleted[:min(len(deleted), gateQueries/4)] {
		bases = append(bases, s.m.deleted[id].base)
	}
	for i := s.m.nextNew - 1; i >= 0 && len(bases) < gateQueries/2; i-- {
		if st, live := s.m.live[fmt.Sprintf("new-%06d", i)]; live {
			bases = append(bases, st.base)
		}
	}
	for len(bases) < 2*gateQueries { // spares for duplicate queries
		if b := rng.Intn(len(s.in.docs)); liveBase[b] {
			bases = append(bases, b)
		}
	}
	return drawQueriesFrom(s.in.docs, bases, gateQueries, rng)
}

// gateRecovery crashes every durable partition after a Sync and reopens
// its directory: exactly the model's live documents must come back.
func (s *system) gateRecovery() error {
	pmap := s.cfg.Map()
	want := make([][]string, len(s.nodes))
	for id := range s.m.live {
		p := pmap.Owner(id)
		want[p] = append(want[p], id)
	}
	for i, n := range s.nodes {
		if err := n.eng.Sync(); err != nil {
			return err
		}
		n.eng.Crash()
		eng, err := durable.Open(n.dir, s.in.owner.Params(), engineOptions(0))
		if err != nil {
			return fmt.Errorf("reopening partition %d: %w", i, err)
		}
		got := eng.Server().DocumentIDs()
		eng.Crash()
		slices.Sort(got)
		slices.Sort(want[i])
		if !slices.Equal(got, want[i]) {
			return fmt.Errorf("partition %d recovered %d documents, the model holds %d (or their IDs differ)", i, len(got), len(want[i]))
		}
	}
	return nil
}

// gobEqual compares two values by their gob encoding: the bytes a daemon
// would put on the wire, so nil versus empty and metadata all count.
func gobEqual(a, b any) bool {
	var ab, bb bytes.Buffer
	if gob.NewEncoder(&ab).Encode(a) != nil || gob.NewEncoder(&bb).Encode(b) != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}
