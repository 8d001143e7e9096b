// Package core implements the privacy-preserving ranked multi-keyword search
// scheme of Örencik & Savaş (PAIS 2012): the data owner's index and trapdoor
// generation (Section 4.1–4.2), the cloud server's oblivious ranked search
// (Sections 4.3 and 5, Algorithm 1), the user's query generation with
// randomization (Section 6), and the blinded document-retrieval protocol
// (Section 4.4).
package core

import (
	"fmt"

	"mkse/internal/rank"
)

// Params fixes every tunable of the scheme. The zero value is not usable;
// start from DefaultParams.
type Params struct {
	// R is the searchable index size in bits (the paper: 448 bits / 56
	// bytes). Every document index level and every query index is R bits.
	R int
	// D is the digit width of the GF(2^d)→GF(2) reduction (the paper: 6),
	// so the raw HMAC output is l = R·D bits (2688 bits / 336 bytes).
	D int
	// Bins is δ, the number of trapdoor bins keywords hash into. It must be
	// small enough that every bin holds ≥ ϖ dictionary words (obfuscation)
	// yet large enough that one bin key unlocks only a sliver of the
	// dictionary.
	Bins int
	// U is the number of random (non-dictionary) keywords folded into every
	// document index; V ≤ U of them are folded into each query. The paper
	// fixes U = 60, V = 30 (U = 2V maximizes the number of V-subsets).
	U, V int
	// Levels holds the ascending term-frequency thresholds of the η ranking
	// levels (Section 5). A single level {1} disables ranking: every match
	// has rank 1.
	Levels rank.Levels
	// RSABits is the data owner's modulus size for key transport, blinding
	// and signatures (the paper: 1024).
	RSABits int
}

// MaxR bounds the index size R (146× the paper's 448 bits): a server
// allocates η·⌈R/64⌉ columns per shard when it is built, and snapshot
// loaders refuse a larger R before building one.
const MaxR = 1 << 16

// DefaultParams returns the paper's implementation parameters: r = 448,
// d = 6, δ = 250 bins, U = 60, V = 30, ranking disabled (η = 1), 1024-bit
// RSA.
func DefaultParams() Params {
	return Params{
		R:       448,
		D:       6,
		Bins:    250,
		U:       60,
		V:       30,
		Levels:  rank.Levels{1},
		RSABits: 1024,
	}
}

// WithLevels returns a copy of p using the given ranking thresholds, e.g.
// rank.Levels{1, 5, 10} for the paper's η = 3 example.
func (p Params) WithLevels(l rank.Levels) Params {
	p.Levels = l
	return p
}

// Eta returns the number of ranking levels η.
func (p Params) Eta() int { return len(p.Levels) }

// Equal reports whether two parameter sets describe the same scheme —
// every scalar matches and the ranking thresholds are identical. Replication
// uses it to refuse bootstrapping a follower whose parameters differ from
// the primary's checkpoint.
func (p Params) Equal(o Params) bool {
	if p.R != o.R || p.D != o.D || p.Bins != o.Bins || p.U != o.U || p.V != o.V || p.RSABits != o.RSABits {
		return false
	}
	if len(p.Levels) != len(o.Levels) {
		return false
	}
	for i, th := range p.Levels {
		if o.Levels[i] != th {
			return false
		}
	}
	return true
}

// HMACBytes returns the byte length l/8 of the raw keyword HMAC expansion.
func (p Params) HMACBytes() int { return (p.R*p.D + 7) / 8 }

// IndexBytes returns the wire size in bytes of one r-bit index.
func (p Params) IndexBytes() int { return (p.R + 7) / 8 }

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.R <= 0 || p.R > MaxR {
		return fmt.Errorf("core: R must be in [1,%d], got %d", MaxR, p.R)
	}
	if p.D <= 0 || p.D > 32 {
		return fmt.Errorf("core: D must be in [1,32], got %d", p.D)
	}
	if p.Bins <= 0 {
		return fmt.Errorf("core: Bins must be positive, got %d", p.Bins)
	}
	if p.U < 0 || p.V < 0 || p.V > p.U {
		return fmt.Errorf("core: need 0 <= V <= U, got U=%d V=%d", p.U, p.V)
	}
	if err := p.Levels.Validate(); err != nil {
		return err
	}
	if p.RSABits < 512 {
		return fmt.Errorf("core: RSABits must be >= 512, got %d", p.RSABits)
	}
	return nil
}
