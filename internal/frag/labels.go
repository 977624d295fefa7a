package frag

import (
	"repro/internal/tokenizer"
)

// BuildLabels constructs the "Before" label matrix of Fig. 4: row 0 is
// the base sequence l0 (code tokens with [FRAG] markers); row i (the
// label row of decoding head i) is l0 shifted left by i and padded with
// [PAD] to the base length. The result has numHeads+1 rows.
func BuildLabels(l0 []int, numHeads int) [][]int {
	s := len(l0)
	labels := make([][]int, numHeads+1)
	labels[0] = append([]int(nil), l0...)
	for i := 1; i <= numHeads; i++ {
		row := make([]int, s)
		for p := 0; p < s; p++ {
			if p+i < s {
				row[p] = l0[p+i]
			} else {
				row[p] = tokenizer.PadID
			}
		}
		labels[i] = row
	}
	return labels
}

// MaskLabelsParallel is the paper's parallel algorithm (Fig. 4, right):
// a boolean has-frag mask is initialized from all head rows, then heads
// are swept in reverse; positions whose mask is still set when the
// sweep passes row i are masked with [IGNORE], and the mask is ANDed
// with "row i is not [FRAG]" as the sweep descends, with early
// termination once the mask empties. The mask words are packed 64
// positions per uint64, mirroring the vectorized tensor operation.
func MaskLabelsParallel(labels [][]int) {
	if len(labels) < 2 {
		return
	}
	heads := len(labels) - 1
	s := len(labels[0])
	nw := (s + 63) / 64

	// Step 1: has_frag_mask[p] = any head row has [FRAG] at p.
	maskWords := make([]uint64, nw)
	for i := 1; i <= heads; i++ {
		row := labels[i]
		for p := 0; p < s; p++ {
			if row[p] == tokenizer.FragID {
				maskWords[p/64] |= 1 << uint(p%64)
			}
		}
	}

	// Step 2: reverse sweep. At row i, positions still in the mask have
	// their last [FRAG] strictly below row i, so row i is beyond the
	// fragment boundary and becomes [IGNORE].
	for i := heads; i >= 1; i-- {
		row := labels[i]
		// temp_mask: positions where row i is not [FRAG].
		any := false
		for w := 0; w < nw; w++ {
			var temp uint64
			base := w * 64
			for b := 0; b < 64 && base+b < s; b++ {
				if row[base+b] != tokenizer.FragID {
					temp |= 1 << uint(b)
				}
			}
			maskWords[w] &= temp
			if maskWords[w] != 0 {
				any = true
			}
		}
		if !any {
			break // early termination (paper's step 3)
		}
		for p := 0; p < s; p++ {
			if maskWords[p/64]>>uint(p%64)&1 == 1 {
				row[p] = tokenizer.IgnoreID
			}
		}
	}
}

// BuildSyntaxEnrichedLabels is the full §III-C pipeline: shift + pad,
// then [IGNORE]-mask with the parallel algorithm.
func BuildSyntaxEnrichedLabels(l0 []int, numHeads int) [][]int {
	labels := BuildLabels(l0, numHeads)
	MaskLabelsParallel(labels)
	return labels
}

// HeadDepths returns, for each position p of l0, the number of head
// rows of the label matrix that hold a label there: head i (1-based)
// has one at p iff i <= depth[p]. It is the count of leading rows
// before the first [PAD] or [IGNORE] in column p of
// BuildSyntaxEnrichedLabels(l0, numHeads) — of BuildLabels(l0, numHeads)
// when mask is false — computed in O(len(l0)·numHeads) without the
// matrix. Those rows are a prefix of the column: [PAD] only follows
// where the shift runs off l0, and [IGNORE] only follows the column's
// last [FRAG]. l0 must hold no [PAD] or [IGNORE], and numHeads must
// be at most 255.
func HeadDepths(l0 []int, numHeads int, mask bool) []uint8 {
	depth := make([]uint8, len(l0))
	for p := range l0 {
		d := min(numHeads, len(l0)-1-p) // rows before the [PAD]s
		if mask {
			for i := d; i >= 1; i-- {
				if l0[p+i] == tokenizer.FragID {
					d = i // rows past the last [FRAG] are [IGNORE]
					break
				}
			}
		}
		depth[p] = uint8(d)
	}
	return depth
}

// IgnoredFraction reports, per head row, the fraction of positions
// masked with [IGNORE] — the paper observes this grows for later heads,
// which is what reduces their prediction difficulty.
func IgnoredFraction(labels [][]int) []float64 {
	out := make([]float64, len(labels))
	for i, row := range labels {
		if len(row) == 0 {
			continue
		}
		n := 0
		for _, v := range row {
			if v == tokenizer.IgnoreID {
				n++
			}
		}
		out[i] = float64(n) / float64(len(row))
	}
	return out
}
