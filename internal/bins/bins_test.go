package bins

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestGetBinRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		b := GetBin(fmt.Sprintf("word%d", i), 64)
		if b < 0 || b >= 64 {
			t.Fatalf("GetBin out of range: %d", b)
		}
	}
}

func TestGetBinDeterministic(t *testing.T) {
	if GetBin("privacy", 128) != GetBin("privacy", 128) {
		t.Error("GetBin not deterministic")
	}
}

func TestGetBinPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for bins=0")
		}
	}()
	GetBin("x", 0)
}

// The paper requires GetBin to have (approximately) uniform distribution so
// that "each bin will have approximately equal number of items in it".
// Chi-square test over a 25000-word synthetic dictionary.
func TestGetBinUniformity(t *testing.T) {
	const words, binCount = 25000, 50
	counts := make([]int, binCount)
	for i := 0; i < words; i++ {
		counts[GetBin(fmt.Sprintf("kw-%d", i), binCount)]++
	}
	expected := float64(words) / binCount
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 49 degrees of freedom; 99.9th percentile ≈ 85. Far above that means the
	// hash is badly skewed.
	if chi2 > 95 {
		t.Errorf("chi-square = %.1f over %d bins, distribution too skewed", chi2, binCount)
	}
}

func TestNewKeySet(t *testing.T) {
	ks, err := NewKeySet(16)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Bins() != 16 {
		t.Errorf("Bins = %d, want 16", ks.Bins())
	}
	seen := make(map[string]bool)
	for i := 0; i < 16; i++ {
		k := ks.Key(i)
		if len(k) != 16 {
			t.Errorf("key %d has length %d, want 16", i, len(k))
		}
		if seen[string(k)] {
			t.Errorf("duplicate key for bin %d", i)
		}
		seen[string(k)] = true
	}
}

func TestNewKeySetRejectsBadCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := NewKeySet(n); err == nil {
			t.Errorf("NewKeySet(%d) succeeded", n)
		}
	}
}

func TestKeyForConsistency(t *testing.T) {
	ks, err := NewKeySet(8)
	if err != nil {
		t.Fatal(err)
	}
	w := "encrypted"
	if !bytes.Equal(ks.KeyFor(w), ks.Key(GetBin(w, 8))) {
		t.Error("KeyFor disagrees with Key(GetBin(...))")
	}
}

func TestSubsetAndPartialKeyFor(t *testing.T) {
	ks, err := NewKeySet(32)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"alpha", "beta"}
	// The user's partial view after one trapdoor exchange: the keys of the
	// requested bins only.
	sub, err := EmptyKeySet(32)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, w := range words {
		b := GetBin(w, 32)
		ids = append(ids, b)
		if err := sub.SetKey(b, ks.Key(b)); err != nil {
			t.Fatal(err)
		}
	}

	for _, w := range words {
		k, err := sub.PartialKeyFor(w)
		if err != nil {
			t.Fatalf("PartialKeyFor(%q): %v", w, err)
		}
		if !bytes.Equal(k, ks.KeyFor(w)) {
			t.Errorf("subset key for %q differs from owner key", w)
		}
	}

	// A keyword from an unrequested bin should error (unless it collides).
	for i := 0; i < 1000; i++ {
		w := fmt.Sprintf("other-%d", i)
		requested := false
		for _, id := range ids {
			if GetBin(w, 32) == id {
				requested = true
			}
		}
		if !requested {
			if _, err := sub.PartialKeyFor(w); err == nil {
				t.Errorf("PartialKeyFor(%q) should fail: bin never requested", w)
			}
			return
		}
	}
	t.Skip("could not find keyword outside requested bins")
}

func TestNewSeededKeySetDeterministic(t *testing.T) {
	a, err := NewSeededKeySet(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSeededKeySet(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !bytes.Equal(a.Key(i), b.Key(i)) {
			t.Fatalf("seed 42 produced different keys for bin %d", i)
		}
	}
	c, err := NewSeededKeySet(8, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Key(0), c.Key(0)) {
		t.Error("different seeds produced identical keys")
	}
	if _, err := NewSeededKeySet(0, 1); err == nil {
		t.Error("zero bins accepted")
	}
}

func TestSetKey(t *testing.T) {
	ks, err := EmptyKeySet(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ks.SetKey(2, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ks.Key(2), []byte{1, 2}) {
		t.Error("SetKey did not store the key")
	}
	if err := ks.SetKey(-1, []byte{1}); err == nil {
		t.Error("negative bin accepted")
	}
	if err := ks.SetKey(4, []byte{1}); err == nil {
		t.Error("out-of-range bin accepted")
	}
	if err := ks.SetKey(1, nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestNewKeySetFromKeysValidation(t *testing.T) {
	if _, err := NewKeySetFromKeys(nil); err == nil {
		t.Error("empty key list accepted")
	}
	if _, err := NewKeySetFromKeys([][]byte{{1}, nil}); err == nil {
		t.Error("nil key accepted")
	}
	ks, err := NewKeySetFromKeys([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if ks.Bins() != 2 {
		t.Errorf("Bins = %d, want 2", ks.Bins())
	}
}

func TestKeyPanicsOutOfRange(t *testing.T) {
	ks, _ := NewKeySet(2)
	for _, b := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Key(%d) did not panic", b)
				}
			}()
			ks.Key(b)
		}()
	}
}

func TestMinOccupancy(t *testing.T) {
	dict := make([]string, 25000)
	for i := range dict {
		dict[i] = fmt.Sprintf("word-%d", i)
	}
	min := MinOccupancy(dict, 100)
	mean := 250.0
	// With uniform hashing the minimum of 100 bins over 25000 draws should be
	// within a few standard deviations of the mean (σ ≈ 15.7).
	if float64(min) < mean-6*math.Sqrt(mean) {
		t.Errorf("minimum occupancy %d suspiciously low (mean %.0f)", min, mean)
	}
}

// Property: GetBin with two different bin counts still lands in range, and
// stability under repetition.
func TestGetBinQuick(t *testing.T) {
	f := func(word string, n uint8) bool {
		binCount := int(n)%512 + 1
		b := GetBin(word, binCount)
		return b >= 0 && b < binCount && b == GetBin(word, binCount)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGetBin(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GetBin("confidential-report", 128)
	}
}
