package dataset

import (
	"cmp"
	"slices"

	"repro/internal/parallel"
)

// minhashSize is the signature length (number of hash permutations).
const minhashSize = 64

// lshBands × lshRows must equal minhashSize; documents sharing any band
// become dedup candidates.
const (
	lshBands = 16
	lshRows  = 4
)

// shingleSize is the word-shingle width used for Jaccard similarity.
const shingleSize = 3

// jaccardThreshold marks a candidate pair as duplicate (§III-A uses
// MinHash + Jaccard; 0.85 is the conventional near-duplicate cut).
const jaccardThreshold = 0.92

// FNV-64a's offset basis and prime: shingles and band keys are FNV-64a
// hashes, computed inline.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// shingles returns the distinct hashed word 3-grams of a document, in
// ascending order. A shingle's hash is the FNV-64a hash of its words,
// each followed by a 0 byte.
func shingles(text string) []uint64 {
	words := fields(text)
	out := make([]uint64, 0, max(0, len(words)-shingleSize+1))
	for i := 0; i+shingleSize <= len(words); i++ {
		h := uint64(fnvOffset)
		for _, w := range words[i : i+shingleSize] {
			for j := 0; j < len(w); j++ {
				h = (h ^ uint64(w[j])) * fnvPrime
			}
			h *= fnvPrime // the 0 byte
		}
		out = append(out, h)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// fields splits on whitespace without allocating per-rune.
func fields(s string) []string {
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// signature computes the MinHash signature of a shingle set using
// minhashSize cheap xorshift-derived permutations.
func signature(sh []uint64) [minhashSize]uint64 {
	var sig [minhashSize]uint64
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, s := range sh {
		x := s
		for i := 0; i < minhashSize; i++ {
			// Per-permutation mixing: multiply-xorshift with distinct
			// odd constants.
			v := (x ^ uint64(i)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
			v ^= v >> 27
			v *= 0x94D049BB133111EB
			v ^= v >> 31
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// maxDiffer is the most signature values two near duplicates differ
// in: the Jaccard estimate, the share of values two signatures agree
// on, reaches jaccardThreshold exactly when no more than maxDiffer
// differ.
var maxDiffer = func() int {
	d := 0
	for float64(minhashSize-d-1)/float64(minhashSize) >= jaccardThreshold {
		d++
	}
	return d
}()

// nearDuplicate reports whether two signatures' Jaccard estimate
// reaches jaccardThreshold. It stops at the first value past maxDiffer
// that differs.
func nearDuplicate(a, b *[minhashSize]uint64) bool {
	differ := 0
	for i := range a {
		if a[i] != b[i] {
			if differ++; differ > maxDiffer {
				return false
			}
		}
	}
	return true
}

// bandKeys returns the LSH key of each band of a signature: the
// FNV-64a hash of the band's values, little-endian.
func bandKeys(sig *[minhashSize]uint64) [lshBands]uint64 {
	var keys [lshBands]uint64
	for b := range keys {
		h := uint64(fnvOffset)
		for r := 0; r < lshRows; r++ {
			v := sig[b*lshRows+r]
			for k := 0; k < 8; k++ {
				h = (h ^ v>>uint(8*k)&0xff) * fnvPrime
			}
		}
		keys[b] = h
	}
	return keys
}

// dupPair is a near-duplicate pair of documents, earlier j < later i.
type dupPair struct{ i, j int32 }

// bandDuplicates returns the near-duplicate pairs band b finds among the
// documents docs (ascending): those sharing the band's key whose
// signatures' Jaccard estimate reaches the threshold. A pair that shares
// an earlier band too is left to that band, so each pair is tested once
// over all bands.
func bandDuplicates(sigs [][minhashSize]uint64, keys [][lshBands]uint64, docs []int32, b int) []dupPair {
	// The documents sharing a key are a list through prev, latest first.
	latest := make(map[uint64]int32, len(docs))
	prev := make([]int32, len(keys))
	var out []dupPair
	for _, i := range docs {
		ki := &keys[i]
		j, ok := latest[ki[b]]
		if !ok {
			j = -1
		}
		prev[i], latest[ki[b]] = j, i
	pairs:
		for ; j >= 0; j = prev[j] {
			for e := range b {
				if ki[e] == keys[j][e] {
					continue pairs
				}
			}
			if nearDuplicate(&sigs[i], &sigs[j]) {
				out = append(out, dupPair{i, j})
			}
		}
	}
	return out
}

// Deduplicate removes near-duplicate documents (Jaccard ≥ threshold on
// MinHash signatures, candidates found via LSH banding), keeping the
// first occurrence: a document is dropped when it is a near duplicate of
// an earlier document that was kept. It returns the surviving indices in
// input order.
//
// A document whose signature repeats an earlier one's is dropped
// without a search: its signature's first document is either kept, and
// so a kept near duplicate, or dropped for a kept near duplicate of its
// own, which is then one of the copy's too. A dropped document never
// drops another, so the search runs over each signature's first
// document alone. The signatures and each band's near-duplicate pairs
// are found on every core; only the pass over the pairs, which depends
// on order, runs serially.
func Deduplicate(docs []string) []int {
	sigs := make([][minhashSize]uint64, len(docs))
	keys := make([][lshBands]uint64, len(docs))
	parallel.For(len(docs), func(i int) {
		sigs[i] = signature(shingles(docs[i]))
		keys[i] = bandKeys(&sigs[i])
	})
	dropped := make([]bool, len(docs))
	first := make(map[[lshBands]uint64]int32, len(docs))
	var distinct []int32
	for i := range docs {
		if f, ok := first[keys[i]]; ok && sigs[f] == sigs[i] {
			dropped[i] = true
			continue
		}
		first[keys[i]] = int32(i)
		distinct = append(distinct, int32(i))
	}
	bands := make([][]dupPair, lshBands)
	parallel.For(lshBands, func(b int) { bands[b] = bandDuplicates(sigs, keys, distinct, b) })
	pairs := slices.Concat(bands...)
	// In ascending order of the later document, every earlier one's fate
	// is settled before a pair reads it.
	slices.SortFunc(pairs, func(x, y dupPair) int { return cmp.Compare(x.i, y.i) })
	for _, p := range pairs {
		if !dropped[p.j] {
			dropped[p.i] = true
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
