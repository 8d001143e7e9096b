package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mkse/internal/protocol"
)

// The inline FNV-1a constants freeze the ownership function; this pins them
// to the standard library's implementation so they can never drift.
func TestOwnerMatchesStdlibFNV1a(t *testing.T) {
	ids := []string{"", "a", "doc-00001", "doc-99999", "contract-acme", "Ω-unicode-id"}
	for _, p := range []int{2, 3, 5, 16} {
		m := Map{Partitions: p}
		for _, id := range ids {
			h := fnv.New64a()
			h.Write([]byte(id))
			want := int(h.Sum64() % uint64(p))
			if got := m.Owner(id); got != want {
				t.Errorf("Owner(%q) with P=%d = %d, want %d (stdlib FNV-1a)", id, p, got, want)
			}
		}
	}
}

func TestOwnerExactlyOneStablePartition(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 7} {
		a, b := Map{Partitions: p}, Map{Partitions: p}
		for i := 0; i < 2000; i++ {
			id := fmt.Sprintf("doc-%05d", i)
			own := a.Owner(id)
			if own < 0 || own >= p {
				t.Fatalf("Owner(%q) with P=%d = %d, out of range", id, p, own)
			}
			// A fresh Map instance — a restarted daemon, a different
			// coordinator — must assign identically.
			if again := b.Owner(id); again != own {
				t.Fatalf("Owner(%q) unstable across instances: %d then %d", id, own, again)
			}
		}
	}
}

func TestOwnerFewerThanTwoPartitions(t *testing.T) {
	for _, p := range []int{-1, 0, 1} {
		if got := (Map{Partitions: p}).Owner("anything"); got != 0 {
			t.Errorf("Owner with P=%d = %d, want 0", p, got)
		}
	}
}

func TestOwnerDistributionRoughlyBalanced(t *testing.T) {
	const p, n = 4, 10000
	m := Map{Partitions: p}
	counts := make([]int, p)
	for i := 0; i < n; i++ {
		counts[m.Owner(fmt.Sprintf("doc-%05d", i))]++
	}
	for i, c := range counts {
		if c < n/p/2 || c > n/p*2 {
			t.Errorf("partition %d owns %d of %d docs — hash badly skewed: %v", i, c, n, counts)
		}
	}
}

func TestParseTargets(t *testing.T) {
	cfg, err := ParseTargets("h1:7002, h2:7002/r1:7003/r2:7004 ,h3:7002")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.P() != 3 {
		t.Fatalf("P() = %d, want 3", cfg.P())
	}
	if cfg.Partitions[0].Primary != "h1:7002" || len(cfg.Partitions[0].Replicas) != 0 {
		t.Errorf("partition 0 mangled: %+v", cfg.Partitions[0])
	}
	if cfg.Partitions[1].Primary != "h2:7002" ||
		!slices.Equal(cfg.Partitions[1].Replicas, []string{"r1:7003", "r2:7004"}) {
		t.Errorf("partition 1 mangled: %+v", cfg.Partitions[1])
	}
	// String renders back into the flag syntax and re-parses identically.
	again, err := ParseTargets(cfg.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, again) {
		t.Errorf("String/ParseTargets round trip mangled: %q -> %+v", cfg.String(), again)
	}
}

func TestParseTargetsRejectsMalformed(t *testing.T) {
	for _, s := range []string{"", "h1,,h2", "h1,h2/", "h1, ,h2", "/r1"} {
		if _, err := ParseTargets(s); err == nil {
			t.Errorf("ParseTargets(%q) accepted, want error", s)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config validated")
	}
	bad := Config{Partitions: []Partition{{Primary: "h1"}, {}}}
	if err := bad.Validate(); err == nil {
		t.Error("config with empty primary validated")
	}
}

// MergeWire against the obvious reference: pool everything, sort globally,
// cut at τ. Because the partitions are disjoint and each applies its own
// local τ-cut first, the two must agree exactly. The reference spells the
// order out itself (rank desc, docID asc) rather than borrowing
// core.Match.Before, so it also checks the one definition MergeWire uses.
func TestMergeWireMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 300; trial++ {
		p := []int{1, 2, 3, 5}[rng.Intn(4)]
		n := rng.Intn(60)
		tau := rng.Intn(8) // 0 = unbounded
		all := make([]protocol.MatchWire, n)
		for i := range all {
			all[i] = protocol.MatchWire{
				DocID: fmt.Sprintf("doc-%03d", i),
				Rank:  rng.Intn(5) + 1,
			}
		}
		m := Map{Partitions: p}
		parts := make([][]protocol.MatchWire, p)
		for _, mw := range all {
			pi := m.Owner(mw.DocID)
			parts[pi] = append(parts[pi], mw)
		}
		cmp := func(a, b protocol.MatchWire) int {
			if a.Rank != b.Rank {
				return b.Rank - a.Rank
			}
			return strings.Compare(a.DocID, b.DocID)
		}
		for pi := range parts {
			slices.SortFunc(parts[pi], cmp)
			if tau > 0 && len(parts[pi]) > tau {
				parts[pi] = parts[pi][:tau] // each partition's local cut
			}
		}
		want := slices.Clone(all)
		slices.SortFunc(want, cmp)
		if tau > 0 && len(want) > tau {
			want = want[:tau]
		}
		if len(want) == 0 {
			want = nil // the no-match result is nil, never empty
		}
		got := MergeWire(parts, tau)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (P=%d n=%d tau=%d): merge diverged from global sort\n got %v\nwant %v",
				trial, p, n, tau, got, want)
		}
	}
}

func TestMergeWireEmptyIsNil(t *testing.T) {
	if got := MergeWire(nil, 5); got != nil {
		t.Errorf("MergeWire(nil) = %v, want nil", got)
	}
	if got := MergeWire([][]protocol.MatchWire{nil, {}}, 0); got != nil {
		t.Errorf("MergeWire(empty parts) = %v, want nil", got)
	}
}

func TestPartialErrorNamesPartitionsAndUnwraps(t *testing.T) {
	cause := errors.New("connection refused")
	pe := &PartialError{
		Partitions: 4,
		Failures: []PartitionFailure{
			{Partition: 1, Addr: "h2:7002", Err: cause},
			{Partition: 3, Addr: "h4:7002", Err: errors.New("timeout")},
		},
	}
	msg := pe.Error()
	for _, want := range []string{"2 of 4", "1 (h2:7002)", "3 (h4:7002)", "connection refused"} {
		if !strings.Contains(msg, want) {
			t.Errorf("PartialError message %q missing %q", msg, want)
		}
	}
	if !errors.Is(pe, cause) {
		t.Error("errors.Is does not reach the per-partition cause through Unwrap")
	}
}
