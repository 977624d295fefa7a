package tokenizer

import "sort"

// trainReference is the trainer Train replaced, kept as its test
// oracle: each merge rescans every pair's count for the most frequent
// pair, then every word for its occurrences, O(merges × pairs). It
// breaks ties between equal counts by merged text only; between two
// pairs of equal count and equal text it keeps whichever map
// iteration meets first, the one case Train's order settles further
// (by the pair's ids).
func trainReference(corpus []string, vocabSize int) *Tokenizer {
	t := &Tokenizer{ranks: map[[2]int]int{}}
	for b := 0; b < 256; b++ {
		t.pieces = append(t.pieces, string([]byte{byte(b)}))
	}
	if vocabSize <= t.VocabSize() {
		return t
	}

	// Collect word frequencies.
	wordFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range pretokenize(doc) {
			wordFreq[w]++
		}
	}
	type word struct {
		ids  []int
		freq int
	}
	words := make([]word, 0, len(wordFreq))
	keys := make([]string, 0, len(wordFreq))
	for w := range wordFreq {
		keys = append(keys, w)
	}
	sort.Strings(keys)
	for _, w := range keys {
		if len(w) < 2 {
			continue
		}
		ids := make([]int, len(w))
		for i := 0; i < len(w); i++ {
			ids[i] = NumSpecial + int(w[i])
		}
		words = append(words, word{ids: ids, freq: wordFreq[w]})
	}

	pairCount := map[[2]int]int{}
	recount := func() {
		clear(pairCount)
		for _, w := range words {
			for i := 0; i+1 < len(w.ids); i++ {
				pairCount[[2]int{w.ids[i], w.ids[i+1]}] += w.freq
			}
		}
	}
	recount()

	for t.VocabSize() < vocabSize {
		// Pick the most frequent pair; break ties by token text.
		var best [2]int
		bestN := 0
		for p, n := range pairCount {
			if n > bestN {
				best, bestN = p, n
				continue
			}
			if n == bestN && n > 0 {
				if t.Token(p[0])+t.Token(p[1]) < t.Token(best[0])+t.Token(best[1]) {
					best = p
				}
			}
		}
		if bestN < 2 {
			break // nothing worth merging
		}
		newID := t.VocabSize()
		t.pieces = append(t.pieces, t.Token(best[0])+t.Token(best[1]))
		t.ranks[best] = newID

		// Apply the merge in place and update pair counts locally.
		for wi := range words {
			w := &words[wi]
			for i := 0; i+1 < len(w.ids); i++ {
				if w.ids[i] != best[0] || w.ids[i+1] != best[1] {
					continue
				}
				if i > 0 {
					pairCount[[2]int{w.ids[i-1], w.ids[i]}] -= w.freq
					pairCount[[2]int{w.ids[i-1], newID}] += w.freq
				}
				if i+2 < len(w.ids) {
					pairCount[[2]int{w.ids[i+1], w.ids[i+2]}] -= w.freq
					pairCount[[2]int{newID, w.ids[i+2]}] += w.freq
				}
				w.ids[i] = newID
				w.ids = append(w.ids[:i+1], w.ids[i+2:]...)
			}
		}
		delete(pairCount, best)
	}
	return t
}
