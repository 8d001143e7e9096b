package bitindex

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file is the whole-arena scan kernel over the word-major layout every
// index level is stored in — one contiguous column per word offset,
// cols[w][row]. A row-major layout would put consecutive rows' copies of one
// word a full row apart (r = 448 bits ⇒ 7 words = 56 bytes), so the
// fail-fast first-word test would drag a whole cache line per document
// through the core. Word-major, the same test is a sequential sweep of
// exactly the columns the query is active on: eight rows per cache line.
//
// AppendMatchingRowsColumns is the blocked bitmap-refinement kernel over that
// layout. It scans the first active word's column once, branch-free,
// producing a survivor bitmask per 64-row block; every later active column is
// then evaluated only on the blocks that still have survivors, most selective
// column first (selectivity measured on a small block sample), and a block
// whose mask empties is dropped from the live set for all remaining columns.
// The emitted row set is defined to be identical — order included — to
// testing every row with Vector.Matches in ascending row order.

// BlockScratch is the reusable working set of AppendMatchingRowsColumns: the
// per-block survivor bitmap, the live-block list and the column evaluation
// order. Callers on the query hot path keep one per scanning goroutine so the
// kernel allocates nothing in steady state. The zero value is ready to use;
// a BlockScratch must not be shared by concurrent kernel calls.
type BlockScratch struct {
	mask  []uint64  // survivor bitmask, one word per 64-row block
	live  []int32   // blocks with at least one survivor, ascending
	order []colStat // refinement columns, most selective first
}

// colStat is one refinement column with its sampled survivor count.
type colStat struct {
	off  int32 // word offset of the column
	surv int32 // survivors over the sampled blocks; fewer = more selective
}

// compareColStat orders refinement columns by ascending sampled survivor
// count — the most selective column runs first, so the live set collapses as
// early as possible. Ties break on word offset for determinism.
func compareColStat(a, b colStat) int {
	if a.surv != b.surv {
		return int(a.surv) - int(b.surv)
	}
	return int(a.off) - int(b.off)
}

// sampleBlocks is how many live blocks the selectivity probe reads per
// remaining column before ordering the refinement passes. The probe work is
// sampleBlocks×(k−1) cache lines for a k-active-word query — noise next to
// the full first-column sweep — and the measured counts order the passes the
// way Gottlob-style cost-ordered evaluation would.
const sampleBlocks = 8

// survivors64 returns the 64-bit survivor mask of one full block of a
// column: bit i is set iff col[i]&m == 0, i.e. row i cannot be rejected by
// this word (Equation 3 fails only where the row intersects ¬q). The loop is
// branch-free — (x|−x)>>63 is 1 exactly when x ≠ 0 — and 4-way unrolled into
// independent accumulator chains so the superscalar pipeline is fed four
// loads per iteration instead of one.
func survivors64(col []uint64, m uint64) uint64 {
	_ = col[63] // one bounds check for the whole block
	var a, b, c, d uint64
	for i := 0; i < 64; i += 4 {
		x0 := col[i] & m
		x1 := col[i+1] & m
		x2 := col[i+2] & m
		x3 := col[i+3] & m
		a |= (((x0 | -x0) >> 63) ^ 1) << uint(i)
		b |= (((x1 | -x1) >> 63) ^ 1) << uint(i+1)
		c |= (((x2 | -x2) >> 63) ^ 1) << uint(i+2)
		d |= (((x3 | -x3) >> 63) ^ 1) << uint(i+3)
	}
	return a | b | c | d
}

// survivorsTail is survivors64 for the final partial block (len(col) < 64).
// Rows beyond the column's end read as non-survivors (bit clear).
func survivorsTail(col []uint64, m uint64) uint64 {
	var s uint64
	for i, w := range col {
		x := w & m
		s |= (((x | -x) >> 63) ^ 1) << uint(i)
	}
	return s
}

// blockSurvivors dispatches a block's survivor computation: the unrolled
// full-block path when 64 rows remain, the scalar tail otherwise.
func blockSurvivors(col []uint64, base, rows int, m uint64) uint64 {
	if base+64 <= rows {
		return survivors64(col[base:base+64], m)
	}
	return survivorsTail(col[base:rows], m)
}

// AppendMatchingRowsColumns scans a word-major arena — cols[w][row] holds
// word w of row's index — with one query and appends the indices of matching
// rows to dst, in ascending order, returning the extended slice. It panics
// if the column count differs from the query's word count or an active
// column does not hold exactly rows words. bs may be nil, in which case the
// kernel allocates its own scratch.
func (s *Sparse) AppendMatchingRowsColumns(cols [][]uint64, rows int, bs *BlockScratch, dst []int32) []int32 {
	if len(cols) != len(s.not) {
		panic(fmt.Sprintf("bitindex: arena has %d columns, query needs %d", len(cols), len(s.not)))
	}
	if rows < 0 {
		panic(fmt.Sprintf("bitindex: negative row count %d", rows))
	}
	for _, o := range s.off {
		if len(cols[o]) != rows {
			panic(fmt.Sprintf("bitindex: column %d holds %d rows, arena has %d", o, len(cols[o]), rows))
		}
	}
	if rows == 0 {
		return dst
	}
	if len(s.off) == 0 {
		// A query with no zero bits matches every document (Equation 3).
		for i := 0; i < rows; i++ {
			dst = append(dst, int32(i))
		}
		return dst
	}
	if bs == nil {
		bs = new(BlockScratch)
	}

	// Pass 1: sweep the first active column sequentially, one survivor mask
	// per 64-row block, collecting the blocks that still matter.
	nb := (rows + 63) / 64
	if cap(bs.mask) < nb {
		bs.mask = make([]uint64, nb)
	}
	bs.mask = bs.mask[:nb]
	bs.live = bs.live[:0]
	col0, m0 := cols[s.off[0]], s.not[s.off[0]]
	for b := 0; b < nb; b++ {
		m := blockSurvivors(col0, b*64, rows, m0)
		bs.mask[b] = m
		if m != 0 {
			bs.live = append(bs.live, int32(b))
		}
	}

	// Refinement: remaining active columns, most selective first. Each pass
	// touches only live blocks and compacts the live set in place, so a
	// selective early column shields the rest of the columns from most of
	// the arena.
	if rest := s.off[1:]; len(rest) > 0 && len(bs.live) > 0 {
		bs.order = bs.order[:0]
		if len(rest) == 1 {
			bs.order = append(bs.order, colStat{off: rest[0]})
		} else {
			sample := bs.live
			if len(sample) > sampleBlocks {
				sample = sample[:sampleBlocks]
			}
			for _, o := range rest {
				col, m := cols[o], s.not[o]
				cnt := 0
				for _, bi := range sample {
					cnt += bits.OnesCount64(bs.mask[bi] & blockSurvivors(col, int(bi)*64, rows, m))
				}
				bs.order = append(bs.order, colStat{off: o, surv: int32(cnt)})
			}
			slices.SortFunc(bs.order, compareColStat)
		}
		for _, st := range bs.order {
			col, m := cols[st.off], s.not[st.off]
			w := 0
			for _, bi := range bs.live {
				if mm := bs.mask[bi] & blockSurvivors(col, int(bi)*64, rows, m); mm != 0 {
					bs.mask[bi] = mm
					bs.live[w] = bi
					w++
				}
			}
			bs.live = bs.live[:w]
			if w == 0 {
				break
			}
		}
	}

	// Emit surviving rows in ascending order: live blocks are ascending and
	// bits walk least-significant first.
	for _, bi := range bs.live {
		base := int32(bi) * 64
		m := bs.mask[bi]
		for m != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	return dst
}
