// Package tokenizer implements a trainable byte-pair-encoding (BPE)
// tokenizer in the style used by the paper's backbone models. The paper
// argues that plain BPE fragments meaningful Verilog structures; this
// package provides exactly that baseline tokenization, on top of which
// the frag package overlays [FRAG]-aligned syntax information.
//
// Token id space:
//
//	0..NumSpecial-1   reserved special tokens ([FRAG], [PAD], [IGNORE],
//	                  <bos>, <eos>, <unk>)
//	NumSpecial..+255  single bytes
//	above             learned merges
package tokenizer

import (
	"fmt"
	"strings"
)

// Reserved special-token ids.
const (
	// FragID is the [FRAG] marker aligning decoding stops with
	// syntactically significant tokens (paper §III-C).
	FragID = 0
	// PadID pads head labels to the base label length (paper Fig. 4).
	PadID = 1
	// IgnoreID marks label positions excluded from loss (paper Fig. 4).
	IgnoreID = 2
	// BosID begins every training / generation sequence.
	BosID = 3
	// EosID ends every training / generation sequence.
	EosID = 4
	// UnkID stands in for bytes outside the training distribution.
	UnkID = 5
	// NumSpecial is the count of reserved ids.
	NumSpecial = 6
)

// specialNames maps reserved ids to their display spelling.
var specialNames = [NumSpecial]string{"[FRAG]", "[PAD]", "[IGNORE]", "<bos>", "<eos>", "<unk>"}

// IsSpecial reports whether id is one of the reserved special tokens.
func IsSpecial(id int) bool { return id >= 0 && id < NumSpecial }

// Tokenizer is a trained BPE vocabulary.
type Tokenizer struct {
	// pieces[id] is the byte string of each token (specials excluded).
	pieces []string
	// ranks maps a merged pair to the id of the merged token; lower id
	// means the merge was learned earlier and applies first.
	ranks map[[2]int]int
	// words is the word table: each training word of two or more bytes
	// and where its ids sit in wordIDs. Train leaves every word at the
	// ids the merges made of it, which are the ids merger gives it.
	words   map[string]span
	wordIDs []int
}

// span locates a word's ids in Tokenizer.wordIDs.
type span struct{ off, n int32 }

// VocabSize returns the total number of token ids, including specials.
func (t *Tokenizer) VocabSize() int { return NumSpecial + len(t.pieces) }

// Token renders a token id as text ([FRAG] etc. for specials).
func (t *Tokenizer) Token(id int) string {
	if IsSpecial(id) {
		return specialNames[id]
	}
	i := id - NumSpecial
	if i < 0 || i >= len(t.pieces) {
		return fmt.Sprintf("<bad:%d>", id)
	}
	return t.pieces[i]
}

// pretokenize splits text into BPE word units: identifier runs, digit
// runs, whitespace runs and single punctuation bytes. Merges never
// cross unit boundaries, mirroring the word-boundary behaviour of
// production BPE tokenizers.
func pretokenize(text string) []string {
	var out []string
	for i := 0; i < len(text); {
		j := wordEnd(text, i)
		out = append(out, text[i:j])
		i = j
	}
	return out
}

// class is a byte's pretokenize class: 1 identifier, 2 digit, 3
// whitespace, 0 a unit of its own.
func class(c byte) int {
	switch {
	case c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		return 1
	case c >= '0' && c <= '9':
		return 2
	case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		return 3
	}
	return 0
}

// wordEnd returns the end of the word unit that starts at text[i].
func wordEnd(text string, i int) int {
	c := class(text[i])
	j := i + 1
	for c != 0 && j < len(text) {
		// Identifier runs take digits too (a1, b101, data_out2).
		if d := class(text[j]); d != c && (c != 1 || d != 2) {
			break
		}
		j++
	}
	return j
}

// Encode tokenizes text into BPE ids (no <bos>/<eos> are added). It
// only reads the trained vocabulary, so it is safe for concurrent use:
// model training encodes its examples on several goroutines at once.
func (t *Tokenizer) Encode(text string) []int {
	return t.AppendEncode(nil, text)
}

// AppendEncode appends text's ids to dst and returns the extended
// slice. A word the tokenizer was trained on is looked up in the word
// table; any other word is merged (see merger). Like Encode, it is
// safe for concurrent use.
func (t *Tokenizer) AppendEncode(dst []int, text string) []int {
	var m merger
	for i := 0; i < len(text); {
		j := wordEnd(text, i)
		word := text[i:j]
		i = j
		if len(word) == 1 {
			dst = append(dst, NumSpecial+int(word[0]))
			continue
		}
		if w, ok := t.words[word]; ok {
			dst = append(dst, t.wordIDs[w.off:w.off+w.n]...)
			continue
		}
		dst = m.encode(t.ranks, word, dst)
	}
	return dst
}

// merger applies a word's merges in rank order: the earliest-learned
// pair present first, the leftmost of equal pairs first. Candidate
// pairs wait in a binary min-heap and each merge pushes only its two
// new neighbour pairs, so a word of n bytes costs O(n log n) rank
// lookups instead of a rescan of the word per merge. The word is a
// linked list of symbols indexed by their first byte; the slices are
// scratch reused across the words of one Encode.
type merger struct {
	id         []int // token of the symbol starting at byte i; -1 once merged into its left neighbour
	prev, next []int // start of the neighbouring symbol; -1 and len(word) at the ends
	heap       []pair
}

// pair is a merge candidate: the ids a and b of the adjacent symbols
// starting at byte pos, and rank, the id they merge into.
type pair struct{ rank, pos, a, b int }

func (a pair) less(b pair) bool { return a.rank < b.rank || a.rank == b.rank && a.pos < b.pos }

// encode appends word's ids to out.
func (m *merger) encode(ranks map[[2]int]int, word string, out []int) []int {
	n := len(word)
	if n == 1 {
		return append(out, NumSpecial+int(word[0]))
	}
	m.id, m.prev, m.next, m.heap = m.id[:0], m.prev[:0], m.next[:0], m.heap[:0]
	for i := 0; i < n; i++ {
		m.id = append(m.id, NumSpecial+int(word[i]))
		m.prev = append(m.prev, i-1)
		m.next = append(m.next, i+1)
	}
	for i := 0; i+1 < n; i++ {
		m.push(ranks, i, i+1)
	}
	for len(m.heap) > 0 {
		p := m.pop()
		i := p.pos
		j := m.next[i]
		if m.id[i] != p.a || j == n || m.id[j] != p.b {
			continue // a merge since the push changed one side of this pair
		}
		m.id[i], m.id[j] = p.rank, -1
		k := m.next[j]
		m.next[i] = k
		if k < n {
			m.prev[k] = i
			m.push(ranks, i, k)
		}
		if h := m.prev[i]; h >= 0 {
			m.push(ranks, h, i)
		}
	}
	for i := 0; i < n; i = m.next[i] {
		out = append(out, m.id[i])
	}
	return out
}

// push queues the pair of symbols starting at bytes i and j when the
// vocabulary merges it.
func (m *merger) push(ranks map[[2]int]int, i, j int) {
	a, b := m.id[i], m.id[j]
	r, ok := ranks[[2]int{a, b}]
	if !ok {
		return
	}
	h := append(m.heap, pair{r, i, a, b})
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if !h[c].less(h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
	m.heap = h
}

// pop removes and returns the lowest-ranked, leftmost candidate.
func (m *merger) pop() pair {
	h := m.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	m.heap = h
	return top
}

// DecodeClean renders ids dropping all special tokens — the "cleaned
// code" of the paper's Fig. 2 output path.
func (t *Tokenizer) DecodeClean(ids []int) string {
	var sb strings.Builder
	for _, id := range ids {
		if IsSpecial(id) {
			continue
		}
		sb.WriteString(t.Token(id))
	}
	return sb.String()
}

// Train learns a BPE vocabulary of the given total size (including the
// reserved specials and the 256 byte tokens) from a corpus. Each merge
// is the most frequent adjacent pair over the corpus's words, chosen
// by a total order: count descending, then the merged text ascending,
// then the pair's ids ascending (left, then right). Training is
// deterministic, and stops early once no pair occurs twice.
//
// The counts wait in a lazy max-heap: an entry is the count its pair
// had when pushed, and is re-checked against the current count when it
// surfaces. A merge is applied only to the words the pair's word list
// names, so one costs time in the occurrences it touches, not in the
// corpus.
func Train(corpus []string, vocabSize int) *Tokenizer {
	t := &Tokenizer{ranks: map[[2]int]int{}}
	for b := 0; b < 256; b++ {
		t.pieces = append(t.pieces, string([]byte{byte(b)}))
	}
	if vocabSize <= t.VocabSize() {
		return t
	}
	tr := &trainer{t: t, index: map[uint64]int32{}}
	tr.count(corpus)
	for t.VocabSize() < vocabSize {
		best, ok := tr.pop()
		if !ok {
			break // nothing worth merging
		}
		p := &tr.pairs[best]
		newID := t.VocabSize()
		t.pieces = append(t.pieces, p.text)
		t.ranks[[2]int{p.a, p.b}] = newID
		tr.merge(best, newID)
	}
	tr.table()
	return t
}

// trainer holds Train's working state: the corpus's distinct words and
// every adjacent pair's count.
type trainer struct {
	t     *Tokenizer
	words []trainWord
	// pairs holds every pair seen; index maps a<<32|b to pair (a, b).
	pairs []pairStat
	index map[uint64]int32
	heap  []heapEntry
	// merges counts the merges applied; a pair whose pushed equals it
	// already waits in touched for its fresh heap entry.
	merges  int
	touched []int32
}

type trainWord struct {
	word string
	ids  []int
	freq int
}

// pairStat is one adjacent pair's count over the corpus and the words
// it occurs in. The list names every word that holds the pair, each
// once, and may name words the pair has since left: a pair's count only
// grows in the merge that made one of its ids, so that merge is the
// only one that appends to its list, a word at a time.
type pairStat struct {
	a, b   int
	text   string // the merged token's text
	count  int
	words  []int32
	pushed int
}

// heapEntry is a pair and the count it had when pushed.
type heapEntry struct {
	count int
	pair  int32
}

// count collects the corpus's word frequencies and their pairs' counts,
// and heaps every pair.
func (tr *trainer) count(corpus []string) {
	wordFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range pretokenize(doc) {
			wordFreq[w]++
		}
	}
	// The words may come in map order: the merge order is total, so
	// which pair merges next never depends on where it sits in pairs or
	// in the heap.
	for w, freq := range wordFreq {
		if len(w) < 2 {
			continue
		}
		ids := make([]int, len(w))
		for i := 0; i < len(w); i++ {
			ids[i] = NumSpecial + int(w[i])
		}
		tr.words = append(tr.words, trainWord{word: w, ids: ids, freq: freq})
	}
	for wi, w := range tr.words {
		for i := 0; i+1 < len(w.ids); i++ {
			tr.add(w.ids[i], w.ids[i+1], w.freq, int32(wi))
		}
	}
	tr.heap = make([]heapEntry, len(tr.pairs))
	for i, p := range tr.pairs {
		tr.heap[i] = heapEntry{p.count, int32(i)}
	}
	for i := len(tr.heap)/2 - 1; i >= 0; i-- {
		tr.down(i)
	}
	tr.touched = tr.touched[:0]
}

// table freezes the training words' final ids into the tokenizer's
// word table.
func (tr *trainer) table() {
	n := 0
	for _, w := range tr.words {
		n += len(w.ids)
	}
	t := tr.t
	t.words = make(map[string]span, len(tr.words))
	t.wordIDs = make([]int, 0, n)
	for _, w := range tr.words {
		// A clone: the key would otherwise hold its whole document.
		t.words[strings.Clone(w.word)] = span{int32(len(t.wordIDs)), int32(len(w.ids))}
		t.wordIDs = append(t.wordIDs, w.ids...)
	}
}

// add moves pair (a, b)'s count by delta for an occurrence in word wi.
// A pair whose count grows is marked for a fresh heap entry.
func (tr *trainer) add(a, b, delta int, wi int32) {
	key := uint64(a)<<32 | uint64(b)
	pi, ok := tr.index[key]
	if !ok {
		pi = int32(len(tr.pairs))
		tr.pairs = append(tr.pairs, pairStat{a: a, b: b, text: tr.t.Token(a) + tr.t.Token(b), pushed: -1})
		tr.index[key] = pi
	}
	p := &tr.pairs[pi]
	p.count += delta
	if delta <= 0 {
		return
	}
	if n := len(p.words); n == 0 || p.words[n-1] != wi {
		p.words = append(p.words, wi)
	}
	if p.pushed != tr.merges {
		p.pushed = tr.merges
		tr.touched = append(tr.touched, pi)
	}
}

// merge rewrites every occurrence of pair best as newID, left to right
// within each word, updating the neighbouring pairs' counts, then heaps
// the pairs whose counts grew.
func (tr *trainer) merge(best int32, newID int) {
	tr.merges++
	p := &tr.pairs[best]
	a, b, words := p.a, p.b, p.words
	p.words = nil
	for _, wi := range words {
		w := &tr.words[wi]
		for i := 0; i+1 < len(w.ids); i++ {
			if w.ids[i] != a || w.ids[i+1] != b {
				continue
			}
			if i > 0 {
				tr.add(w.ids[i-1], w.ids[i], -w.freq, wi)
				tr.add(w.ids[i-1], newID, w.freq, wi)
			}
			if i+2 < len(w.ids) {
				tr.add(w.ids[i+1], w.ids[i+2], -w.freq, wi)
				tr.add(newID, w.ids[i+2], w.freq, wi)
			}
			w.ids[i] = newID
			w.ids = append(w.ids[:i+1], w.ids[i+2:]...)
		}
	}
	tr.pairs[best].count = 0 // its overlapping occurrences (aaa) moved it too
	for _, pi := range tr.touched {
		tr.push(heapEntry{tr.pairs[pi].count, pi})
	}
	tr.touched = tr.touched[:0]
}

// pop returns the first pair in Train's order, or false when no pair
// occurs twice. Every pair with a positive count has an entry at least
// its count (a count only falls between pushes), so the first entry
// that is current is the first pair; a stale one is pushed again at its
// current count.
func (tr *trainer) pop() (int32, bool) {
	for len(tr.heap) > 0 {
		top := tr.heap[0]
		last := len(tr.heap) - 1
		tr.heap[0] = tr.heap[last]
		tr.heap = tr.heap[:last]
		tr.down(0)
		n := tr.pairs[top.pair].count
		if n == top.count {
			return top.pair, n >= 2
		}
		if n > 0 {
			tr.push(heapEntry{n, top.pair})
		}
	}
	return 0, false
}

// before reports whether x comes before y in Train's merge order.
func (tr *trainer) before(x, y heapEntry) bool {
	if x.count != y.count {
		return x.count > y.count
	}
	px, py := &tr.pairs[x.pair], &tr.pairs[y.pair]
	if px.text != py.text {
		return px.text < py.text
	}
	return px.a < py.a || px.a == py.a && px.b < py.b
}

func (tr *trainer) push(e heapEntry) {
	h := append(tr.heap, e)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if !tr.before(h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
	tr.heap = h
}

func (tr *trainer) down(i int) {
	h := tr.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && tr.before(h[r], h[c]) {
			c = r
		}
		if !tr.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
