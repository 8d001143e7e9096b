// Package cluster is the partitioning discipline of the scale-out
// deployment: a static doc-ID-hash map assigning every document to exactly
// one of P independent primaries, the global merge that folds per-partition
// top-τ results back into the (rank, docID) order a single-node scan would
// produce, and the typed partial-failure error a coordinator reports when a
// partition cannot be reached.
//
// The design keeps the scan local and the cut global: each partition runs
// the unchanged Algorithm-1 scan over its own corpus slice and applies its
// own top-τ cut, and because partitions are disjoint by document ID the
// global top-τ is always a subset of the union of per-partition top-τ sets —
// so merging the P sorted lists and cutting at τ is byte-identical to
// scanning the whole corpus on one node. No partition ever needs another's
// rows, and the coordinator never re-ranks; it only interleaves.
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"mkse/internal/protocol"
)

// Map is the static partition map: a pure function from document ID to
// owning partition. It is deliberately stateless — ownership derives from an
// FNV-1a hash of the ID alone, so every party (owner uploads, client
// deletes, servers validating routes) computes the same assignment with no
// coordination, and the assignment is stable across restarts by
// construction.
type Map struct {
	Partitions int
}

// FNV-1a 64-bit constants; the hash is spelled out rather than taken from
// hash/fnv so the ownership function is visibly frozen — changing it would
// silently reassign every stored document.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Owner returns the 0-based partition that owns docID. Every document ID is
// owned by exactly one partition; a map with fewer than two partitions owns
// everything at partition 0.
func (m Map) Owner(docID string) int {
	if m.Partitions <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(docID); i++ {
		h ^= uint64(docID[i])
		h *= fnvPrime64
	}
	return int(h % uint64(m.Partitions))
}

// Partition is one partition's address set: the primary that owns the
// partition's corpus slice, plus any read replicas a coordinator may fall
// back to when the primary is unreachable.
type Partition struct {
	Primary  string
	Replicas []string
}

// Config is the static cluster topology a coordinator routes by: partition
// i's addresses at index i. The partition count is the length.
type Config struct {
	Partitions []Partition
}

// P returns the partition count.
func (c Config) P() int { return len(c.Partitions) }

// Map returns the doc-ID ownership map for this topology.
func (c Config) Map() Map { return Map{Partitions: len(c.Partitions)} }

// Validate rejects topologies that cannot route: no partitions, or a
// partition with an empty primary address.
func (c Config) Validate() error {
	if len(c.Partitions) == 0 {
		return errors.New("cluster: no partitions configured")
	}
	for i, p := range c.Partitions {
		if p.Primary == "" {
			return fmt.Errorf("cluster: partition %d has no primary address", i)
		}
	}
	return nil
}

// ParseTargets parses the -cluster flag syntax: a comma-separated partition
// list, each element "primary[/replica[/replica...]]". Element order is
// partition order — element i must be the daemon started with -partition
// i/P, which the coordinator verifies against each server's reported
// identity at dial time.
func ParseTargets(s string) (Config, error) {
	var cfg Config
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Config{}, fmt.Errorf("cluster: empty partition element in %q", s)
		}
		addrs := strings.Split(part, "/")
		p := Partition{Primary: strings.TrimSpace(addrs[0])}
		for _, r := range addrs[1:] {
			r = strings.TrimSpace(r)
			if r == "" {
				return Config{}, fmt.Errorf("cluster: empty replica address in %q", part)
			}
			p.Replicas = append(p.Replicas, r)
		}
		cfg.Partitions = append(cfg.Partitions, p)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// String renders the topology back into the -cluster flag syntax.
func (c Config) String() string {
	parts := make([]string, len(c.Partitions))
	for i, p := range c.Partitions {
		parts[i] = strings.Join(append([]string{p.Primary}, p.Replicas...), "/")
	}
	return strings.Join(parts, ",")
}

// MergeWire folds per-partition result lists — each already in the global
// result order (core.Match.Before: rank desc, docID asc) with its local
// τ-cut applied — into that order and applies the global τ-cut (tau <= 0
// keeps everything). Because partitions hold disjoint document sets, the
// merged prefix is exactly what a single node holding the whole corpus
// would return. An empty merge returns nil, matching the single-node scan's
// no-match result.
func MergeWire(parts [][]protocol.MatchWire, tau int) []protocol.MatchWire {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	if tau > 0 && tau < total {
		total = tau
	}
	out := make([]protocol.MatchWire, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for pi := range parts {
			if idx[pi] >= len(parts[pi]) {
				continue
			}
			if best < 0 || parts[pi][idx[pi]].Before(parts[best][idx[best]]) {
				best = pi
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// PartitionFailure is one unreachable partition in a scatter-gather fan-out:
// which partition, the last address tried, and the underlying error.
type PartitionFailure struct {
	Partition int
	Addr      string
	Err       error
}

// PartialError reports that a scatter-gather request could not cover every
// partition: the named partitions (primary and any replicas) were
// unreachable or timed out, so the merged result — if the caller uses it —
// is missing their documents. It is a typed error so callers can
// distinguish "results are partial" from "the request failed" and decide
// which partitions to blame.
type PartialError struct {
	Partitions int // total partitions in the fan-out
	Failures   []PartitionFailure
}

// Error names every dead partition — the operator's first question.
func (e *PartialError) Error() string {
	names := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		names[i] = fmt.Sprintf("%d (%s): %v", f.Partition, f.Addr, f.Err)
	}
	return fmt.Sprintf("cluster: partial result: %d of %d partitions unavailable: %s",
		len(e.Failures), e.Partitions, strings.Join(names, "; "))
}

// Unwrap exposes the per-partition causes to errors.Is/As walks.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}
