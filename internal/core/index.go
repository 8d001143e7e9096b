package core

import (
	"fmt"

	"mkse/internal/bitindex"
)

// SearchIndex is the per-document searchable metadata stored at the cloud
// server: one r-bit index per ranking level. Level 1 (slice position 0)
// covers every keyword of the document; higher levels cover only keywords
// whose term frequency clears the level's threshold (Section 5). With
// ranking disabled there is a single level.
//
// The index reveals nothing about the keywords without the owner's bin keys
// (index privacy, Theorem 2); the server stores and compares it blindly.
type SearchIndex struct {
	DocID  string
	Levels []*bitindex.Vector
}

// Clone deep-copies the index.
func (si *SearchIndex) Clone() *SearchIndex {
	out := &SearchIndex{DocID: si.DocID, Levels: make([]*bitindex.Vector, len(si.Levels))}
	for i, l := range si.Levels {
		out.Levels[i] = l.Clone()
	}
	return out
}

// Validate checks structural invariants against the scheme parameters.
func (si *SearchIndex) Validate(p Params) error {
	if si.DocID == "" {
		return fmt.Errorf("core: search index with empty document ID")
	}
	if len(si.Levels) != p.Eta() {
		return fmt.Errorf("core: search index for %q has %d levels, scheme uses %d", si.DocID, len(si.Levels), p.Eta())
	}
	for i, l := range si.Levels {
		if l == nil {
			return fmt.Errorf("core: search index for %q has nil level %d", si.DocID, i+1)
		}
		if l.Len() != p.R {
			return fmt.Errorf("core: search index for %q level %d has %d bits, want %d", si.DocID, i+1, l.Len(), p.R)
		}
	}
	return nil
}

// EncryptedDocument is the payload stored at the cloud server: the
// symmetric-key ciphertext of the document body and the RSA encryption of
// its per-document symmetric key (Section 4.4). The server can decrypt
// neither.
type EncryptedDocument struct {
	ID         string
	Ciphertext []byte
	EncKey     []byte // textbook-RSA encryption of the document key
}

// Match is one search hit: the document ID and the rank assigned by
// Algorithm 1 (highest matching level, ≥ 1). It is the one result type from
// the shard heap to the user; the wire and the client alias it. The paper
// also returns each match's level-1 index as "metadata" (Section 3,
// footnote 2), but no user consumes it — it holds the very bits the server
// already tested — so it is neither gathered nor sent.
type Match struct {
	DocID string
	Rank  int
}

// Before is the global result order, defined here once for the per-shard
// heaps, the τ-cut sort and the cluster merge: m comes before o when it
// has the higher rank, ties broken by the smaller document ID.
func (m Match) Before(o Match) bool {
	if m.Rank != o.Rank {
		return m.Rank > o.Rank
	}
	return m.DocID < o.DocID
}

// compare is Before as a three-way comparison, for slices.SortFunc.
func (m Match) compare(o Match) int {
	switch {
	case m.Before(o):
		return -1
	case o.Before(m):
		return 1
	}
	return 0
}
