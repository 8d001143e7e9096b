// Package kdf expands an HMAC into the long pseudorandom strings the MKS
// scheme consumes. The paper (Section 8.1) builds a 336-byte (2688-bit)
// trapdoor source "by concatenating different SHA2-based HMAC functions"; we
// realize the same {0,1}* → {0,1}^l interface by running HMAC-SHA256 in
// counter mode, which is the standard stdlib-only construction with uniform,
// independent output blocks.
package kdf

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
)

// KeySize is the HMAC key size used throughout the scheme, in bytes. The
// paper's index-privacy proof (Theorem 2) assumes 128-bit HMAC keys; we keep
// that parameter.
const KeySize = 16

// Expand computes an l-byte pseudorandom string from key and data. Blocks are
// HMAC-SHA256(key, data || counter) for counter = 0,1,2,…, concatenated and
// truncated to l bytes. It panics if l <= 0 or the key is empty — both
// indicate programmer error, not input error.
func Expand(key, data []byte, l int) []byte {
	if l <= 0 {
		panic(fmt.Sprintf("kdf: invalid output length %d", l))
	}
	if len(key) == 0 {
		panic("kdf: empty key")
	}
	out := make([]byte, 0, l+sha256.Size)
	var counter [4]byte
	// One keyed HMAC per call: Reset restores the keyed inner and outer
	// states, so each block costs two compressions and no allocation.
	mac := hmac.New(sha256.New, key)
	for len(out) < l {
		mac.Reset()
		mac.Write(data)
		mac.Write(counter[:])
		out = mac.Sum(out)
		// 32-bit big-endian counter increment.
		for i := 3; i >= 0; i-- {
			counter[i]++
			if counter[i] != 0 {
				break
			}
		}
	}
	return out[:l]
}

// ExpandString is Expand for string inputs (keywords).
func ExpandString(key []byte, word string, l int) []byte {
	return Expand(key, []byte(word), l)
}
