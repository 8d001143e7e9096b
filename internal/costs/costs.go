// Package costs instruments the three protocol parties with the operation
// and byte counters behind the paper's complexity analysis (Section 8,
// Tables 1 and 2). Counters are cheap atomics so production code paths can
// stay instrumented.
package costs

import (
	"fmt"
	"sync/atomic"
)

// Counters tallies the unit operations of Table 2 and the traffic of
// Table 1 for one party. The zero value is ready to use.
type Counters struct {
	// HashOps counts keyword expansions (HMAC plus reduction). The owner
	// counts one per distinct keyword per index batch (BuildIndex is a
	// batch of one document); the user, one per keyword per bin key, since
	// it memoizes what it derives.
	HashOps           atomic.Int64
	BitwiseProducts   atomic.Int64 // index AND folds
	BinaryComparisons atomic.Int64 // r-bit index match tests (server search)
	ModExps           atomic.Int64 // modular exponentiations (RSA ops)
	ModMuls           atomic.Int64 // modular multiplications (blind/unblind)
	SymEncrypts       atomic.Int64 // symmetric-key encryptions
	SymDecrypts       atomic.Int64 // symmetric-key decryptions
	Signatures        atomic.Int64 // signature creations
	Verifications     atomic.Int64 // signature verifications
	BytesSent         atomic.Int64
	BytesReceived     atomic.Int64
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	HashOps           int64
	BitwiseProducts   int64
	BinaryComparisons int64
	ModExps           int64
	ModMuls           int64
	SymEncrypts       int64
	SymDecrypts       int64
	Signatures        int64
	Verifications     int64
	BytesSent         int64
	BytesReceived     int64
}

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		HashOps:           c.HashOps.Load(),
		BitwiseProducts:   c.BitwiseProducts.Load(),
		BinaryComparisons: c.BinaryComparisons.Load(),
		ModExps:           c.ModExps.Load(),
		ModMuls:           c.ModMuls.Load(),
		SymEncrypts:       c.SymEncrypts.Load(),
		SymDecrypts:       c.SymDecrypts.Load(),
		Signatures:        c.Signatures.Load(),
		Verifications:     c.Verifications.Load(),
		BytesSent:         c.BytesSent.Load(),
		BytesReceived:     c.BytesReceived.Load(),
	}
}

// Reset zeroes every counter.
func (c *Counters) Reset() {
	c.HashOps.Store(0)
	c.BitwiseProducts.Store(0)
	c.BinaryComparisons.Store(0)
	c.ModExps.Store(0)
	c.ModMuls.Store(0)
	c.SymEncrypts.Store(0)
	c.SymDecrypts.Store(0)
	c.Signatures.Store(0)
	c.Verifications.Store(0)
	c.BytesSent.Store(0)
	c.BytesReceived.Store(0)
}

// Sub returns the difference s − earlier, for measuring one protocol step.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		HashOps:           s.HashOps - earlier.HashOps,
		BitwiseProducts:   s.BitwiseProducts - earlier.BitwiseProducts,
		BinaryComparisons: s.BinaryComparisons - earlier.BinaryComparisons,
		ModExps:           s.ModExps - earlier.ModExps,
		ModMuls:           s.ModMuls - earlier.ModMuls,
		SymEncrypts:       s.SymEncrypts - earlier.SymEncrypts,
		SymDecrypts:       s.SymDecrypts - earlier.SymDecrypts,
		Signatures:        s.Signatures - earlier.Signatures,
		Verifications:     s.Verifications - earlier.Verifications,
		BytesSent:         s.BytesSent - earlier.BytesSent,
		BytesReceived:     s.BytesReceived - earlier.BytesReceived,
	}
}

// String renders the non-zero counters on one line.
func (s Snapshot) String() string {
	out := ""
	add := func(name string, v int64) {
		if v != 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s=%d", name, v)
		}
	}
	add("hash", s.HashOps)
	add("and", s.BitwiseProducts)
	add("cmp", s.BinaryComparisons)
	add("modexp", s.ModExps)
	add("modmul", s.ModMuls)
	add("enc", s.SymEncrypts)
	add("dec", s.SymDecrypts)
	add("sig", s.Signatures)
	add("vrf", s.Verifications)
	add("tx", s.BytesSent)
	add("rx", s.BytesReceived)
	if out == "" {
		out = "(none)"
	}
	return out
}

// Table1Expected returns the analytic per-step communication costs of
// Table 1 in bits, for γ query keywords, an logN-bit RSA modulus, r-bit
// indices, α matched documents, θ retrieved documents and docSize-bit
// documents. Keys are "<party>/<step>" as printed in the paper's table.
func Table1Expected(gamma, logN, r, alpha, theta, docSize int) map[string]int64 {
	return map[string]int64{
		"user/trapdoor":   int64(32*gamma + logN), // bin IDs + signature-carrying request... signature folded into logN per paper
		"user/search":     int64(r),
		"user/decrypt":    int64(logN),
		"owner/trapdoor":  int64(logN),
		"owner/search":    0,
		"owner/decrypt":   int64(logN),
		"server/trapdoor": 0,
		"server/search":   int64(alpha*r) + int64(theta)*int64(docSize+logN),
		"server/decrypt":  0,
	}
}
