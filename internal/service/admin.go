package service

import (
	"errors"
	"fmt"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/protocol"
)

// The owner's and operator's one-shot verbs, which need no enrolled user.
// The bulk verbs route through a router of their own exactly as a Client
// does: to the owning partition's primary, following a promotion, under
// DefaultPartitionTimeout. The single-daemon verbs go through protocol.Call
// under DialTimeout. Either way a daemon that never answers cannot wedge
// the caller.

// UploadItem pairs a search index with its encrypted document.
type UploadItem struct {
	Index *core.SearchIndex
	Doc   *core.EncryptedDocument
}

// UploadAll pushes prepared documents from the owner to one cloud daemon —
// UploadAllCluster over a one-partition topology.
func UploadAll(cloudAddr string, items []UploadItem) error {
	return UploadAllCluster(onePartition(cloudAddr), items)
}

// DeleteAll removes documents from one cloud daemon by ID — DeleteAllCluster
// over a one-partition topology.
func DeleteAll(cloudAddr string, docIDs []string) error {
	return DeleteAllCluster(onePartition(cloudAddr), docIDs)
}

// UploadAllCluster pushes prepared documents to the cluster, each to the
// primary of the partition owning its document ID — the owner-side upload
// of Figure 1's offline stage. Connections are dialed on first use and no
// partition identity is exchanged: a daemon holding another partition
// rejects the upload with protocol.CodeWrongPartition.
func UploadAllCluster(cfg cluster.Config, items []UploadItem) error {
	r, err := newRouter(cfg)
	if err != nil {
		return err
	}
	defer r.dropAll()
	for _, it := range items {
		levels := make([][]byte, len(it.Index.Levels))
		for i, l := range it.Index.Levels {
			levels[i] = marshalVector(l)
		}
		resp, err := r.mutate(it.Index.DocID, &protocol.Message{UploadReq: &protocol.UploadRequest{
			DocID:      it.Index.DocID,
			Levels:     levels,
			Ciphertext: it.Doc.Ciphertext,
			EncKey:     it.Doc.EncKey,
		}})
		if err == nil && resp.UploadResp == nil {
			err = errors.New("response missing")
		}
		if err != nil {
			return fmt.Errorf("service: uploading %q: %w", it.Index.DocID, err)
		}
	}
	return nil
}

// DeleteAllCluster removes documents from the cluster by ID, each through
// the primary of the partition owning it (see UploadAllCluster).
func DeleteAllCluster(cfg cluster.Config, docIDs []string) error {
	r, err := newRouter(cfg)
	if err != nil {
		return err
	}
	defer r.dropAll()
	for _, id := range docIDs {
		if err := r.deleteDoc(id); err != nil {
			return err
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

// FetchClusterStats asks every partition for its operational counters
// without enrolling a user — the operator's one-shot cluster introspection
// path, the router's scatter: a partition whose primary does not answer is
// asked through its replicas. When partitions are missing entirely, the
// surviving entries are returned (nil at the failed indices) alongside a
// *cluster.PartialError.
func FetchClusterStats(cfg cluster.Config) ([]*protocol.StatsResponse, error) {
	r, err := newRouter(cfg)
	if err != nil {
		return nil, err
	}
	defer r.dropAll()
	return r.scatterStats()
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
