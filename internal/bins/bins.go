// Package bins implements the keyword-binning half of the trapdoor protocol
// (Örencik & Savaş, Section 4.2). Keywords are assigned to δ bins by a public
// uniform hash (GetBin). The data owner keeps one secret HMAC key per bin; a
// user requests trapdoors by *bin ID* rather than by keyword, so the owner
// learns only which bins — each holding at least ϖ keywords — were touched,
// never the keyword itself.
package bins

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand"

	"mkse/internal/kdf"
)

// GetBin maps a keyword to a bin ID in {0, …, bins−1} using a public,
// unkeyed, uniformly distributed hash (SHA-256 truncated to 64 bits, reduced
// modulo the bin count). Every party — owner, user, even the adversary — can
// evaluate it; its role is load-balancing and obfuscation, not secrecy.
// It panics if bins <= 0.
func GetBin(word string, bins int) int {
	if bins <= 0 {
		panic(fmt.Sprintf("bins: invalid bin count %d", bins))
	}
	sum := sha256.Sum256([]byte(word))
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(bins))
}

// KeySet holds the data owner's per-bin secret HMAC keys. It is the secret
// material whose absence makes the brute-force attack of Section 4.1
// infeasible: without the bin key an adversary cannot evaluate the trapdoor
// function at all.
type KeySet struct {
	keys [][]byte
}

// NewKeySet draws fresh random 128-bit keys for the given number of bins
// using crypto/rand.
func NewKeySet(bins int) (*KeySet, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("bins: invalid bin count %d", bins)
	}
	ks := &KeySet{keys: make([][]byte, bins)}
	for i := range ks.keys {
		k := make([]byte, kdf.KeySize)
		if _, err := rand.Read(k); err != nil {
			return nil, fmt.Errorf("bins: generating key for bin %d: %w", i, err)
		}
		ks.keys[i] = k
	}
	return ks, nil
}

// NewSeededKeySet derives bin keys from a deterministic seed (math/rand).
// It exists so experiments are exactly reproducible run to run; production
// owners use NewKeySet's crypto/rand keys.
func NewSeededKeySet(bins int, seed int64) (*KeySet, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("bins: invalid bin count %d", bins)
	}
	rng := mrand.New(mrand.NewSource(seed))
	ks := &KeySet{keys: make([][]byte, bins)}
	for i := range ks.keys {
		k := make([]byte, kdf.KeySize)
		for j := range k {
			k[j] = byte(rng.Intn(256))
		}
		ks.keys[i] = k
	}
	return ks, nil
}

// NewKeySetFromKeys wraps externally supplied keys (an owner's keys restored
// from storage). The slice is retained; callers must not mutate it
// afterwards.
func NewKeySetFromKeys(keys [][]byte) (*KeySet, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("bins: empty key set")
	}
	for i, k := range keys {
		if len(k) == 0 {
			return nil, fmt.Errorf("bins: empty key for bin %d", i)
		}
	}
	return &KeySet{keys: keys}, nil
}

// Bins returns the number of bins δ.
func (ks *KeySet) Bins() int { return len(ks.keys) }

// Key returns the secret key of the given bin. It panics on an out-of-range
// bin ID.
func (ks *KeySet) Key(bin int) []byte {
	if bin < 0 || bin >= len(ks.keys) {
		panic(fmt.Sprintf("bins: bin %d out of range [0,%d)", bin, len(ks.keys)))
	}
	return ks.keys[bin]
}

// KeyFor returns the secret key governing the given keyword's bin.
func (ks *KeySet) KeyFor(word string) []byte {
	return ks.keys[GetBin(word, len(ks.keys))]
}

// PartialKeyFor returns the key for the keyword's bin, or an error if this
// (partial) key set does not hold that bin's key.
func (ks *KeySet) PartialKeyFor(word string) ([]byte, error) {
	b := GetBin(word, len(ks.keys))
	if ks.keys[b] == nil {
		return nil, fmt.Errorf("bins: no trapdoor key for bin %d (keyword %q); request it from the data owner", b, word)
	}
	return ks.keys[b], nil
}

// SetKey installs the key for one bin, accumulating trapdoor material
// received from the data owner.
func (ks *KeySet) SetKey(bin int, key []byte) error {
	if bin < 0 || bin >= len(ks.keys) {
		return fmt.Errorf("bins: bin %d out of range [0,%d)", bin, len(ks.keys))
	}
	if len(key) == 0 {
		return fmt.Errorf("bins: empty key for bin %d", bin)
	}
	ks.keys[bin] = key
	return nil
}

// EmptyKeySet returns a key set with the right bin count and no keys, the
// starting state of a fresh user.
func EmptyKeySet(bins int) (*KeySet, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("bins: invalid bin count %d", bins)
	}
	return &KeySet{keys: make([][]byte, bins)}, nil
}

// MinOccupancy distributes the given dictionary into bins and returns the
// size of the smallest bin. The paper requires every bin to hold at least ϖ
// keywords (the security parameter); deployments should check
// MinOccupancy(dict, δ) >= ϖ when choosing δ.
func MinOccupancy(dictionary []string, binCount int) int {
	if binCount <= 0 {
		panic(fmt.Sprintf("bins: invalid bin count %d", binCount))
	}
	counts := make([]int, binCount)
	for _, w := range dictionary {
		counts[GetBin(w, binCount)]++
	}
	min := counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
	}
	return min
}
