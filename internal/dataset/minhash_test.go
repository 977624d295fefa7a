package dataset

import (
	"slices"
	"testing"
)

// serialDeduplicate is Deduplicate as one loop in input order, the form
// the parallel search replaced: each document is compared with every
// earlier document sharing a band key with it, and dropped at the first
// kept one whose Jaccard estimate reaches the threshold.
func serialDeduplicate(docs []string) []int {
	sigs := make([][minhashSize]uint64, len(docs))
	for i := range docs {
		sigs[i] = signature(shingles(docs[i]))
	}
	buckets := map[uint64][]int{}
	dropped := make([]bool, len(docs))
	for i := range docs {
		keys := bandKeys(&sigs[i])
		for b, h := range keys {
			key := h ^ uint64(b)<<56
			for _, j := range buckets[key] {
				same := 0
				for r := range sigs[i] {
					if sigs[i][r] == sigs[j][r] {
						same++
					}
				}
				if !dropped[i] && !dropped[j] && float64(same)/minhashSize >= jaccardThreshold {
					dropped[i] = true
				}
			}
			buckets[key] = append(buckets[key], i)
		}
	}
	var keep []int
	for i := range docs {
		if !dropped[i] {
			keep = append(keep, i)
		}
	}
	return keep
}

// TestDeduplicateMatchesSerialLoop holds Deduplicate to the serial loop
// on the modules the corpus pipeline deduplicates (exact copies, near
// duplicates and chains of them), whole and cut short.
func TestDeduplicateMatchesSerialLoop(t *testing.T) {
	files, _, _ := GenerateRaw(CorpusOptions{Seed: 1, Items: 1200})
	var docs []string
	for _, f := range files {
		for _, m := range SplitModules(f) {
			if FilterModule(m) {
				docs = append(docs, m)
			}
		}
	}
	for _, n := range []int{len(docs), len(docs) / 3, 40} {
		got, want := Deduplicate(docs[:n]), serialDeduplicate(docs[:n])
		if !slices.Equal(got, want) {
			t.Fatalf("%d documents: kept %d, the serial loop keeps %d", n, len(got), len(want))
		}
		if n == len(docs) {
			t.Logf("%d documents, %d kept", n, len(got))
		}
	}
}
