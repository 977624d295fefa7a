package spec

import (
	"slices"
	"testing"

	"repro/internal/tokenizer"
)

// refLookupRun is the linear drafter's scan before the two lookup
// drafters shared lookupScan, kept as FuzzLookupScan's reference.
func refLookupRun(seq []int, minMatch, maxSpan int) []int {
	n := len(seq)
	if n < minMatch+minLookupHistory {
		return nil
	}
	maxK := maxLookupSuffix
	if maxK > n-1 {
		maxK = n - 1
	}
	for k := maxK; k >= minMatch; k-- {
		suffix := seq[n-k:]
		for j := n - 2; j >= k-1; j-- {
			match := true
			for x := 0; x < k; x++ {
				if seq[j-k+1+x] != suffix[x] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			end := j + 1 + maxSpan
			if end > n {
				end = n
			}
			run := make([]int, 0, end-j-1)
			for _, id := range seq[j+1 : end] {
				if id == tokenizer.BosID {
					break
				}
				run = append(run, id)
			}
			if len(run) == 0 {
				return nil
			}
			return run
		}
	}
	return nil
}

// refLookupRuns is the tree drafter's scan before the merge.
func refLookupRuns(seq []int, minMatch, maxSpan, maxBranches int) [][]int {
	n := len(seq)
	if n < minMatch+minLookupHistory {
		return nil
	}
	maxK := maxLookupSuffix
	if maxK > n-1 {
		maxK = n - 1
	}
	var runs [][]int
	seen := map[string]bool{}
	for k := maxK; k >= minMatch && len(runs) < maxBranches; k-- {
		suffix := seq[n-k:]
		for j := n - 2; j >= k-1 && len(runs) < maxBranches; j-- {
			match := true
			for x := 0; x < k; x++ {
				if seq[j-k+1+x] != suffix[x] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			end := j + 1 + maxSpan
			if end > n {
				end = n
			}
			run := make([]int, 0, end-j-1)
			for _, id := range seq[j+1 : end] {
				if id == tokenizer.BosID {
					break
				}
				run = append(run, id)
			}
			if len(run) == 0 {
				continue
			}
			key := refRunKey(run)
			if seen[key] {
				continue
			}
			seen[key] = true
			runs = append(runs, run)
		}
	}
	return runs
}

// refRunKey spells a run for refLookupRuns' dedup.
func refRunKey(run []int) string {
	b := make([]byte, 0, len(run)*3)
	for _, id := range run {
		b = append(b, byte(id), byte(id>>8), byte(id>>16))
	}
	return string(b)
}

// lookupSymbols decodes a fuzz input into a token sequence over a
// small alphabet: byte%9 == 0 is <bos>, the other residues are eight
// ordinary ids.
func lookupSymbols(data []byte) []int {
	seq := make([]int, len(data))
	for i, b := range data {
		seq[i] = 10 + int(b%9)
		if b%9 == 0 {
			seq[i] = tokenizer.BosID
		}
	}
	return seq
}

// FuzzLookupScan: over short sequences on a small alphabet with <bos>,
// the shared scan gives the linear drafter and the tree drafter exactly
// the runs their own loops gave before the merge.
func FuzzLookupScan(f *testing.F) {
	// TestLookupRunsLeadsWithLinearRun's sequence: 7 8 9 50 51 99 7 8 9
	// 60 61 99 7 8 9, one symbol per distinct id.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 1, 2, 3, 7, 8, 6, 1, 2, 3}, uint8(2), uint8(9), uint8(3))
	// The newest match of the suffix 1 2 3 continues with <bos>: the
	// linear drafter gives up there, the tree keeps looking and finds 4.
	f.Add([]byte{1, 2, 3, 4, 0, 1, 2, 3, 0, 1, 2, 3}, uint8(2), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, minMatch, maxSpan, maxBranches uint8) {
		if len(data) > 64 {
			data = data[:64]
		}
		seq := lookupSymbols(data)
		mm, span, branches := 1+int(minMatch%4), 1+int(maxSpan%12), 1+int(maxBranches%6)

		if got, want := lookupRun(seq, mm, span), refLookupRun(seq, mm, span); !slices.Equal(got, want) {
			t.Fatalf("lookupRun(%v, %d, %d) = %v, want %v", seq, mm, span, got, want)
		}
		got, want := lookupRuns(seq, mm, span, branches), refLookupRuns(seq, mm, span, branches)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("lookupRuns(%v, %d, %d, %d) = %v, want %v", seq, mm, span, branches, got, want)
		}
	})
}
