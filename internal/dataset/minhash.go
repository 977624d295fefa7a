package dataset

import (
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

// estJaccard estimates Jaccard similarity from two signatures.
func estJaccard(a, b [minhashSize]uint64) float64 {
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(minhashSize)
}

// Deduplicate removes near-duplicate documents (Jaccard ≥ threshold on
// MinHash signatures, candidates found via LSH banding), keeping the
// first occurrence. It returns the surviving indices in input order.
// The signatures are computed on every core.
func Deduplicate(docs []string) []int {
	sigs := make([][minhashSize]uint64, len(docs))
	parallel.For(len(docs), func(i int) { sigs[i] = signature(shingles(docs[i])) })
	buckets := map[uint64][]int{}
	dropped := make([]bool, len(docs))
	for i := range docs {
		if dropped[i] {
			continue
		}
		for b := 0; b < lshBands; b++ {
			// The FNV-64a hash of the band's values, little-endian.
			h := uint64(fnvOffset)
			for r := 0; r < lshRows; r++ {
				v := sigs[i][b*lshRows+r]
				for k := 0; k < 8; k++ {
					h = (h ^ v>>uint(8*k)&0xff) * fnvPrime
				}
			}
			key := h ^ uint64(b)<<56
			for _, j := range buckets[key] {
				if !dropped[i] && !dropped[j] && estJaccard(sigs[i], sigs[j]) >= jaccardThreshold {
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
