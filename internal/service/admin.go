package service

import (
	"fmt"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/protocol"
)

// The owner's and operator's one-shot verbs: raw exchanges with cloud
// daemons that need no enrolled user. The bulk verbs hold one connection
// for the whole batch; the single-exchange verbs go through protocol.Call
// under DialTimeout, so a daemon that accepts and never answers cannot
// wedge the caller.

// UploadItem pairs a search index with its encrypted document.
type UploadItem struct {
	Index *core.SearchIndex
	Doc   *core.EncryptedDocument
}

// UploadAll pushes prepared documents from the owner to the cloud daemon —
// the owner-side upload of Figure 1's offline stage.
func UploadAll(cloudAddr string, items []UploadItem) error {
	ep := &endpoint{addr: cloudAddr}
	if err := ep.dial(DialTimeout); err != nil {
		return fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer ep.drop()
	for _, it := range items {
		levels := make([][]byte, len(it.Index.Levels))
		for i, l := range it.Index.Levels {
			levels[i] = marshalVector(l)
		}
		resp, err := ep.roundtrip(&protocol.Message{UploadReq: &protocol.UploadRequest{
			DocID:      it.Index.DocID,
			Levels:     levels,
			Ciphertext: it.Doc.Ciphertext,
			EncKey:     it.Doc.EncKey,
		}}, 0)
		if err != nil {
			return fmt.Errorf("service: uploading %q: %w", it.Index.DocID, err)
		}
		if resp.UploadResp == nil {
			return fmt.Errorf("service: upload response missing for %q", it.Index.DocID)
		}
	}
	return nil
}

// DeleteAll removes documents from the cloud daemon by ID — the owner-side
// retraction mirroring UploadAll.
func DeleteAll(cloudAddr string, docIDs []string) error {
	ep := &endpoint{addr: cloudAddr}
	if err := ep.dial(DialTimeout); err != nil {
		return fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer ep.drop()
	for _, id := range docIDs {
		resp, err := ep.roundtrip(&protocol.Message{DeleteReq: &protocol.DeleteRequest{DocID: id}}, 0)
		if err != nil {
			return fmt.Errorf("service: deleting %q: %w", id, err)
		}
		if resp.DeleteResp == nil {
			return fmt.Errorf("service: delete response missing for %q", id)
		}
	}
	return nil
}

// UploadAllCluster pushes prepared documents to the cluster, routing each to
// the partition primary owning its document ID — the owner-side upload of
// Figure 1's offline stage, partitioned.
func UploadAllCluster(cfg cluster.Config, items []UploadItem) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m := cfg.Map()
	groups := make([][]UploadItem, cfg.P())
	for _, it := range items {
		i := m.Owner(it.Index.DocID)
		groups[i] = append(groups[i], it)
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := UploadAll(cfg.Partitions[i].Primary, g); err != nil {
			return fmt.Errorf("service: partition %d: %w", i, err)
		}
	}
	return nil
}

// DeleteAllCluster removes documents from the cluster by ID, routing each
// deletion to the owning partition primary.
func DeleteAllCluster(cfg cluster.Config, docIDs []string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m := cfg.Map()
	groups := make([][]string, cfg.P())
	for _, id := range docIDs {
		i := m.Owner(id)
		groups[i] = append(groups[i], id)
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := DeleteAll(cfg.Partitions[i].Primary, g); err != nil {
			return fmt.Errorf("service: partition %d: %w", i, err)
		}
	}
	return nil
}

// FetchStats asks any cloud daemon (primary or follower) for its
// operational counters without enrolling a user — the operator's one-shot
// introspection path.
func FetchStats(cloudAddr string) (*protocol.StatsResponse, error) {
	resp, err := protocol.Call(cloudAddr, &protocol.Message{StatsReq: &protocol.StatsRequest{}}, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: stats: %w", err)
	}
	if resp.StatsResp == nil {
		return nil, fmt.Errorf("service: stats response missing")
	}
	return resp.StatsResp, nil
}

// FetchClusterStats asks every partition primary for its operational
// counters without enrolling a user — the operator's one-shot cluster
// introspection path.
func FetchClusterStats(cfg cluster.Config) ([]*protocol.StatsResponse, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]*protocol.StatsResponse, cfg.P())
	for i, p := range cfg.Partitions {
		st, err := FetchStats(p.Primary)
		if err != nil {
			return nil, fmt.Errorf("service: partition %d (%s): %w", i, p.Primary, err)
		}
		out[i] = st
	}
	return out, nil
}

// Promote asks the daemon at cloudAddr to become primary at the given
// promotion term (see protocol.PromoteRequest). The term must exceed the
// daemon's current one; retries of the same term are idempotent.
func Promote(cloudAddr string, term uint64) (*protocol.PromoteResponse, error) {
	resp, err := protocol.Call(cloudAddr, &protocol.Message{PromoteReq: &protocol.PromoteRequest{Term: term}}, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: promote: %w", err)
	}
	if resp.PromoteResp == nil {
		return nil, fmt.Errorf("service: promote response missing")
	}
	return resp.PromoteResp, nil
}
