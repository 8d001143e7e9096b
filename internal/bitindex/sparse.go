package bitindex

import "fmt"

// This file is the word-level face of the package: raw access to a vector's
// 64-bit words, the word-major arena accessors (so callers can store many
// indices as one contiguous column per word offset instead of boxing each
// Vector), and Sparse, a preprocessed query form that skips every word the
// query cannot fail on.

// WordsFor returns the number of 64-bit words backing a vector of n bits —
// the number of columns in a word-major arena of n-bit indices.
func WordsFor(n int) int { return (n + 63) / 64 }

// Words returns the vector's backing words, least significant first, with the
// unused tail bits of the last word zero. The slice aliases the vector's
// storage: callers must treat it as read-only. Storing word w of an index at
// cols[w][row] is the arena fill operation.
func (v *Vector) Words() []uint64 { return v.words }

// FromColumns gathers row's n-bit vector out of a word-major arena —
// cols[w][row] holds word w of row's index — copying the words so the result
// does not alias the arena. Tail bits beyond n are cleared. It panics if
// n <= 0, the arena does not have WordsFor(n) columns, or a column does not
// hold row.
func FromColumns(n int, cols [][]uint64, row int) *Vector {
	v := New(n)
	if len(cols) != len(v.words) {
		panic(fmt.Sprintf("bitindex: arena has %d columns, %d bits need %d", len(cols), n, len(v.words)))
	}
	for w, col := range cols {
		v.words[w] = col[row]
	}
	v.clampTail()
	return v
}

// Sparse is a query preprocessed for the zero-word-skipping match kernels.
//
// Equation 3 (v matches q iff v ∧ ¬q = 0) can only fail at words where
// ¬q ≠ 0, i.e. words holding at least one 0 bit of q. Sparse stores ¬q
// plus the offsets of those "active" words; its kernels test only the active
// columns of a word-major arena and skip the all-ones remainder of the query
// entirely. Queries built from few trapdoors are zero-sparse (Section 6's
// F(x) starts at r/2^d zeros for one keyword), so most words are inactive.
//
// A Sparse is immutable after Sparsify/SparsifyInto and safe for concurrent
// use by any number of kernel calls.
type Sparse struct {
	n   int      // bits in the query
	not []uint64 // ¬q, tail bits beyond n cleared
	off []int32  // offsets of the nonzero words of not, ascending
}

// Sparsify preprocesses query q for the word-skipping kernels.
func (q *Vector) Sparsify() *Sparse {
	s := new(Sparse)
	q.SparsifyInto(s)
	return s
}

// SparsifyInto is Sparsify reusing s's backing storage, for callers that keep
// per-scan scratch to make the query hot path allocation-free.
func (q *Vector) SparsifyInto(s *Sparse) {
	s.n = q.n
	if cap(s.not) < len(q.words) {
		s.not = make([]uint64, len(q.words))
		s.off = make([]int32, 0, len(q.words))
	}
	s.not = s.not[:len(q.words)]
	s.off = s.off[:0]
	for i, w := range q.words {
		s.not[i] = ^w
	}
	// Clear the tail so inverted padding never reads as active.
	if rem := s.n % 64; rem != 0 {
		s.not[len(s.not)-1] &= (uint64(1) << uint(rem)) - 1
	}
	for i, w := range s.not {
		if w != 0 {
			s.off = append(s.off, int32(i))
		}
	}
}

// MatchesRow reports whether row of a word-major arena matches the query
// under Equation 3, reading only the query's active columns. It is the
// rank-walk primitive: the Algorithm-1 level walk tests one specific row per
// level, where a whole-arena kernel has nothing to amortize. It panics if
// the column count differs from the query's word count or an active column
// does not hold row.
func (s *Sparse) MatchesRow(cols [][]uint64, row int) bool {
	if len(cols) != len(s.not) {
		panic(fmt.Sprintf("bitindex: arena has %d columns, query needs %d", len(cols), len(s.not)))
	}
	for _, o := range s.off {
		if cols[o][row]&s.not[o] != 0 {
			return false
		}
	}
	return true
}
