package model

import (
	"math/rand"
	"testing"

	"repro/internal/tokenizer"
)

// scanInduction is findInduction as the k-by-k rescan it replaced: for
// each match length k from the longest down, the prompt's windows are
// scanned from the last candidate end down, and the first match wins.
// TestFindInductionMatchesScan and FuzzFindInduction hold the one-pass
// search equal to it.
func scanInduction(promptLen int, seq []int) (int, int) {
	n := len(seq)
	var suffix [maxInduction]int
	sn := 0
	for i := n - 1; i >= 0 && sn < maxInduction; i-- {
		if seq[i] == tokenizer.FragID {
			continue
		}
		sn++
		suffix[maxInduction-sn] = seq[i]
	}
	limit := min(promptLen-1, n-2)
	for k := sn; k >= minInduction; k-- {
		suf := suffix[maxInduction-k:]
		for j := limit; j >= k-1; j-- {
			match := true
			for x := 0; x < k; x++ {
				if seq[j-k+1+x] != suf[x] {
					match = false
					break
				}
			}
			if match {
				return j, k
			}
		}
	}
	return -1, 0
}

// inductionCase spells a session's prompt length and a sequence from
// bytes: the first picks an alphabet of 2–5 ids, the second a prompt
// length of 0–40, and each later byte one token, a [FRAG] marker for a
// large byte past the prompt.
func inductionCase(data []byte) (promptLen int, seq []int) {
	if len(data) < 2 {
		return 0, nil
	}
	alpha, promptLen := 2+int(data[0]%4), int(data[1]%41)
	for i, b := range data[2:min(len(data), 2+96)] {
		if i >= promptLen && b >= 208 {
			seq = append(seq, tokenizer.FragID)
			continue
		}
		seq = append(seq, tokenizer.NumSpecial+int(b)%alpha)
	}
	return promptLen, seq
}

// sameInduction checks findInduction against the scan on every prefix
// of seq, so the n <= promptLen+1 cases, where the sequence limits the
// search and not the prompt, are always among them. It returns how
// many prefixes found a match.
func sameInduction(t *testing.T, promptLen int, seq []int) int {
	t.Helper()
	g, found := &Gen{promptLen: promptLen}, 0
	for n := 0; n <= len(seq); n++ {
		j, k := g.findInduction(seq[:n])
		wj, wk := scanInduction(promptLen, seq[:n])
		if j != wj || k != wk {
			t.Fatalf("prompt %d, seq %v: (j, k) = (%d, %d), the scan finds (%d, %d)", promptLen, seq[:n], j, k, wj, wk)
		}
		if k > 0 {
			found++
		}
	}
	return found
}

// TestFindInductionMatchesScan runs the one-pass induction search and
// the rescan it replaced over random sequences on small alphabets,
// where long matches and equally long rivals (the tie rule) are common.
func TestFindInductionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	found, full := 0, 0
	for range 4000 {
		alpha, promptLen := 2+rng.Intn(4), rng.Intn(41)
		seq := make([]int, 0, promptLen+24)
		for i := range cap(seq) {
			if i >= promptLen && rng.Intn(5) == 0 {
				seq = append(seq, tokenizer.FragID)
				continue
			}
			seq = append(seq, tokenizer.NumSpecial+rng.Intn(alpha))
		}
		found += sameInduction(t, promptLen, seq)
		if _, k := scanInduction(promptLen, seq); k == maxInduction {
			full++
		}
	}
	if found == 0 || full == 0 {
		t.Fatalf("the cases never matched (%d matches, %d of full length)", found, full)
	}
}

// FuzzFindInduction holds the one-pass induction search equal to the
// rescan it replaced on every prefix of a sequence spelled by
// inductionCase.
func FuzzFindInduction(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 12, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}) // one repeated pair, ties everywhere
	f.Add([]byte{3, 20, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 255, 3, 255, 4})
	f.Add([]byte{1, 5, 0, 1, 2, 0, 1, 2, 0})       // n around promptLen+1
	f.Add([]byte{2, 0, 0, 1, 2, 0, 1, 2, 0, 1, 2}) // no prompt
	f.Fuzz(func(t *testing.T, data []byte) {
		promptLen, seq := inductionCase(data)
		sameInduction(t, promptLen, seq)
	})
}
