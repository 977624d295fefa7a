package model

import (
	"cmp"
	"math/bits"
	"slices"
)

// ngramTable is a set of context→successor count tables over a ladder
// of context lengths. Short lengths are dense (0,1,2,3,4); longer
// reaches use a skip ladder (6, 8, 12, 16) so the table can span a
// whole module header without storing every intermediate order.
// Counts are float64 so weighted (joint-training interference) updates
// compose cleanly with ordinary observations.
//
// A table is its frozen levels: flat, pointer-free arrays (level) that
// the garbage collector never walks. It is built by units of training
// work (see trainLevels), each of which owns the tallies it counts in
// (tally, cheap to update) and builds its levels once it has seen its
// last example. Prediction reads only the frozen levels, and each is
// built exactly once: nothing writes it afterwards.
//
// A key mixes in the table's seed, so the contexts of different seeds
// never meet, and a table may be split by seed into parts: a seed's
// contexts all live in part partOf(fmix(seed)), a ladder of levels
// of its own. The keyword table is split this way, a part per unit of
// training work; the base and head tables have one part.
//
// Every level trains in one unit: it is fed its observations in
// example order and built without ever reading another table, so its
// counts are summed in the same order and come out bit for bit the same
// at any GOMAXPROCS.
type ngramTable struct {
	levels []int // ascending context lengths
	// parts[p][i] is level i of part p frozen: empty until its unit
	// builds it.
	parts     [][]level
	partShift uint // 64 − log2(len(parts)); see partOf
	// idBound is 1 + the largest successor id, set at the seal: predict's
	// accumulator covers the ids below it.
	idBound int
}

// tally is one level in training form: the contexts in order of first
// observation, and an index from their keys to their positions.
type tally struct {
	// index is an open-addressed table of positions in ctxs, each stored
	// as position+1 (0 marks an empty slot), probed linearly from the
	// key's Fibonacci hash and kept at most half full. A probe compares
	// the key the context holds. At four bytes a slot, the index's
	// outgrown arrays are a small fraction of the tally.
	index []int32
	shift uint // 64 − log2(len(index))
	// ctxs holds the contexts in chunks of chunkLen. A growing tally
	// adds a chunk, never copying the contexts it holds, so it leaves
	// no outgrown arrays behind for the collector.
	ctxs    [][]succ
	n       int // contexts held
	entries int // successor entries over all ctxs
}

const chunkLen = 1 << 10

// tallies is a unit's training form of a table's levels: tallies[i]
// counts level i.
type tallies []tally

// at returns the context at position n.
func (c *tally) at(n int32) *succ { return &c.ctxs[n/chunkLen][n%chunkLen] }

// push appends a context and returns its position. A chunk kept by
// reset is refilled in place, each context reusing the run storage of
// the one it replaces.
func (c *tally) push(key uint64) int32 {
	if c.n/chunkLen == len(c.ctxs) {
		c.ctxs = append(c.ctxs, make([]succ, 0, chunkLen))
	}
	chunk := &c.ctxs[c.n/chunkLen]
	*chunk = (*chunk)[:len(*chunk)+1]
	s := &(*chunk)[len(*chunk)-1]
	*s = succ{key: key, run: s.run[:0]}
	c.n++
	return int32(c.n - 1)
}

// get returns the context with the given key, adding it if it is new.
func (c *tally) get(key uint64) *succ {
	if 2*(c.n+1) > len(c.index) {
		c.grow()
	}
	mask := len(c.index) - 1
	for i := int((key * fibMul) >> c.shift); ; i = (i + 1) & mask {
		p := c.index[i]
		if p == 0 {
			p = c.push(key) + 1
			c.index[i] = p
			return c.at(p - 1)
		}
		if s := c.at(p - 1); s.key == key {
			return s
		}
	}
}

// add counts one observation of id after the context with the given
// key.
func (c *tally) add(key uint64, id int32, weight float64) {
	if c.get(key).add(id, weight) {
		c.entries++
	}
}

// grow doubles the index (to chunkLen slots at first) and reinserts
// every context.
func (c *tally) grow() {
	b := max(bits.Len(uint(len(c.index))), bits.Len(chunkLen-1))
	c.index = make([]int32, 1<<b)
	c.shift = uint(64 - b)
	mask := len(c.index) - 1
	for p := range int32(c.n) {
		i := int((c.at(p).key * fibMul) >> c.shift)
		for c.index[i] != 0 {
			i = (i + 1) & mask
		}
		c.index[i] = p + 1
	}
}

// reset empties the tally and keeps its storage: the index at its size,
// and the chunks with their contexts' runs for push to reuse.
func (c *tally) reset() {
	clear(c.index)
	for i := range c.ctxs {
		c.ctxs[i] = c.ctxs[i][:0]
	}
	c.n, c.entries = 0, 0
}

// emit appends the tally's contexts to *slab in order of first
// observation, each run sorted by id, passes put each one's record, and
// returns 1 + the largest successor id it emitted (0 if none).
func (c *tally) emit(slab *[]entry, put func(slot)) int {
	bound := 0
	for _, chunk := range c.ctxs {
		for _, s := range chunk {
			start := len(*slab)
			*slab = append(*slab, s.run...)
			run := (*slab)[start:]
			slices.SortFunc(run, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
			bound = max(bound, int(run[len(run)-1].id)+1)
			put(slot{key: s.key, total: s.total, start: int32(start), n: int32(len(run))})
		}
	}
	return bound
}

// succ is one context's successor counts and their total. Most contexts
// have one or two successors, so the counts are a short run searched
// linearly; an id index is built only once the run outgrows linearMax.
type succ struct {
	key   uint64
	total float64
	run   []entry
	index map[int32]int32 // id → position in run; nil while short
}

const linearMax = 16

// add counts one observation of id, reporting whether id is new here.
func (s *succ) add(id int32, weight float64) bool {
	s.total += weight
	if s.index == nil {
		for j := range s.run {
			if s.run[j].id == id {
				s.run[j].v += weight
				return false
			}
		}
	} else if j, ok := s.index[id]; ok {
		s.run[j].v += weight
		return false
	}
	s.run = append(s.run, entry{id, weight})
	if s.index != nil {
		s.index[id] = int32(len(s.run) - 1)
	} else if len(s.run) > linearMax {
		s.index = make(map[int32]int32, 2*len(s.run))
		for j, e := range s.run {
			s.index[e.id] = int32(j)
		}
	}
	return true
}

// level is one ladder level frozen: open-addressed context records
// (linear probing from a Fibonacci hash, load at most 1/2) over one slab
// holding each context's successor counts as a run sorted by id. Runs
// and slot insertions follow the order the contexts were emitted in, so
// the layout is a function of the training data alone.
type level struct {
	slots []slot
	shift uint // 64 − log2(len(slots))
	slab  []entry
	ctxs  int // occupied slots
	bound int // 1 + the largest successor id in slab
}

// slot is one context record: its hash, total count and successor run
// slab[start:start+n]. n == 0 marks an empty slot (an observed context
// always has a successor).
type slot struct {
	key      uint64
	total    float64
	start, n int32
}

// ladder returns the context-length ladder for a maximum reach.
func ladder(maxCtx int) []int {
	var out []int
	for k := 0; k <= maxCtx && k <= 4; k++ {
		out = append(out, k)
	}
	for _, k := range []int{6, 8, 12, maxReach} {
		if k <= maxCtx {
			out = append(out, k)
		}
	}
	return out
}

// maxReach is the longest context any ladder reaches.
const maxReach = 16

// maxLevels is the most levels a ladder has: len(ladder(maxReach)).
const maxLevels = 9

// newNgramTable returns a table with every level empty, split by seed
// into 2^partBits parts.
func newNgramTable(maxCtx, partBits int) *ngramTable {
	t := &ngramTable{levels: ladder(maxCtx), partShift: uint(64 - partBits)}
	t.parts = make([][]level, 1<<partBits)
	for p := range t.parts {
		t.parts[p] = make([]level, len(t.levels))
	}
	return t
}

// partOf returns the index of the part that holds the contexts of the
// seed whose fmix is ms. A one-part table's shift is 64, which sends
// every seed to part 0.
func (t *ngramTable) partOf(ms uint64) uint64 { return ms >> t.partShift }

// ctxHashes is a context's hash at every ladder level that fits it:
// h[i] hashes its last levels[i] ids, for the first n levels.
//
// One pass hashes the context from its newest id to its oldest, each id
// folded in by an FNV-1a step, and the hash of its last k ids is the
// state after k steps, so every level's hash falls out of that pass.
// The key a table files the context under mixes in the table's seed (a
// keyword's kwSeed; 0 for a plain table) afterwards: fmix(h ^ fmix(seed)).
// The seed is mixed on its own first because kwSeed is an FNV hash too:
// xored in raw, a keyword pair's seed difference can cancel a context
// pair's hash difference, and two (keyword, context) pairs collide.
type ctxHashes struct {
	h [maxLevels]uint64
	n int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashes hashes ctx at every level of t that fits it.
func (t *ngramTable) hashes(ctx []int) ctxHashes { return hashLevels(t.levels, ctx) }

// hashLevels hashes ctx at every level of a ladder that fits it.
func hashLevels(levels, ctx []int) ctxHashes {
	var hs ctxHashes
	h, j := uint64(fnvOffset), len(ctx)
	for _, k := range levels {
		if k > len(ctx) {
			break
		}
		for ; j > len(ctx)-k; j-- {
			h = (h ^ uint64(ctx[j-1])) * fnvPrime
		}
		hs.h[hs.n] = h
		hs.n++
	}
	return hs
}

// fmix is MurmurHash3's 64-bit finalizer: a bijection whose every output
// bit depends on every input bit.
func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// observe records one observation of next after the context hashed to
// hs, under seed, at the ladder levels lo ≤ i < hi that fit the
// context. Joint-training interference pollutes only the levels of the
// longest contexts, without bleeding into the low-order backoff levels:
// gradient interference perturbs a transformer's behaviour at specific
// contexts, it does not rewrite its global token statistics. A weight-0
// observation records nothing: predict's backoff counts successor
// types, so even an empty entry would move the distribution.
func (ts tallies) observe(hs *ctxHashes, next int, weight float64, lo, hi int, seed uint64) {
	if weight == 0 {
		return
	}
	ms := fmix(seed)
	for i := lo; i < min(hi, hs.n); i++ {
		ts[i].add(fmix(hs.h[i]^ms), int32(next), weight)
	}
}

// seal ends a table's training once every level is built: it bounds
// the successor ids.
func (t *ngramTable) seal() {
	for _, part := range t.parts {
		for i := range part {
			t.idBound = max(t.idBound, part[i].bound)
		}
	}
}

// fibMul is 2^64/φ: multiplying by it spreads the hash's entropy into
// the top bits, which index the slots.
const fibMul = 0x9E3779B97F4A7C15

func (l *level) home(key uint64) int { return int((key * fibMul) >> l.shift) }

// find returns the record of the context hashing to key, or nil.
func (l *level) find(key uint64) *slot {
	if len(l.slots) == 0 {
		return nil
	}
	mask := len(l.slots) - 1
	for i := l.home(key); ; i = (i + 1) & mask {
		s := &l.slots[i]
		if s.n == 0 {
			return nil
		}
		if s.key == key {
			return s
		}
	}
}

// newLevel returns a level with room for n contexts and no contexts in
// it yet.
func newLevel(n int) level {
	if n == 0 {
		return level{}
	}
	b := bits.Len(uint(2*n - 1)) // 2^b >= 2n
	return level{slots: make([]slot, 1<<b), shift: uint(64 - b)}
}

// insert files a context's record in its slot.
func (l *level) insert(r slot) {
	mask := len(l.slots) - 1
	i := l.home(r.key)
	for l.slots[i].n != 0 {
		i = (i + 1) & mask
	}
	l.slots[i] = r
	l.ctxs++
}

// levelBuf builds a level from a run of tallies, one after another: the
// one way a level is built. A tally knows its context and successor
// counts before it emits, so each take's runs are kept in an array of
// exactly their size, and the level is built from the last tally, which
// is not taken, once its own size is known too.
type levelBuf struct {
	recs  [][]slot  // each take's context records, starts in its runs
	runs  [][]entry // each take's runs, sorted by id
	n     int       // contexts taken
	bound int       // 1 + the largest successor id taken
}

// take appends c's contexts, adding their records to recs, which it
// returns: a unit's takes of one group share one array of records.
func (b *levelBuf) take(c *tally, recs []slot) []slot {
	if c.n == 0 {
		return recs
	}
	start, runs := len(recs), make([]entry, 0, c.entries)
	b.bound = max(b.bound, c.emit(&runs, func(r slot) { recs = append(recs, r) }))
	b.recs, b.runs = append(b.recs, recs[start:]), append(b.runs, runs)
	b.n += c.n
	return recs
}

// level compiles the taken contexts, in the order taken, and then
// last's into a level. The takes' runs are copied into the slab; last
// emits its runs after them and its records straight into the slots.
func (b *levelBuf) level(last *tally) level {
	if b.n+last.n == 0 {
		return level{}
	}
	l := newLevel(b.n + last.n)
	size := last.entries
	for _, runs := range b.runs {
		size += len(runs)
	}
	l.slab = make([]entry, 0, size)
	for k, recs := range b.recs {
		off := int32(len(l.slab)) // the take's runs' start in the slab
		l.slab = append(l.slab, b.runs[k]...)
		for _, r := range recs {
			r.start += off
			l.insert(r)
		}
	}
	l.bound = max(b.bound, last.emit(&l.slab, l.insert))
	return l
}

// wbScale tempers the Witten-Bell novelty estimate: a level with total
// mass T over D distinct successors keeps T/(T+wbScale·D) of the
// remaining probability. The scale keeps backoff mass small on sparse
// but fully-informative contexts (template-heavy RTL corpora), so the
// uninformative unigram level — dominated by whitespace and [FRAG] —
// cannot leak into sharp predictions.
const wbScale = 0.15

// accum is a dense per-id accumulator and a bitmap of the ids it holds,
// the working memory of predict's scatter. Both are all zero between
// uses, and they grow once to the largest id bound they have seen.
type accum struct {
	v    []float64
	seen []uint64
}

// fit grows the accumulator to cover ids below bound.
func (a *accum) fit(bound int) {
	if len(a.v) < bound {
		a.v = make([]float64, bound)
		a.seen = make([]uint64, (bound+63)/64)
	}
}

// gather appends the ids marked in bitmap words lo..hi to dst in
// ascending order, each with its accumulated value, clearing each slot
// as it reads it. It also returns the values' sum, taken in that order.
func (a *accum) gather(dst []entry, lo, hi int) ([]entry, float64) {
	n := 0
	for w := lo; w <= hi; w++ {
		n += bits.OnesCount64(a.seen[w])
	}
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out, total := dst[start:], 0.0
	j := 0
	for w := lo; w <= hi; w++ {
		for b := a.seen[w]; b != 0; b &= b - 1 {
			id := w<<6 | bits.TrailingZeros64(b)
			out[j] = entry{int32(id), a.v[id]}
			total += a.v[id]
			a.v[id] = 0
			j++
		}
		a.seen[w] = 0
	}
	return dst, total
}

// predict appends to dst the interpolated distribution for the next
// token given ctx, using tempered Witten-Bell confidence at each ladder
// level (seed selects a keyword-conditioned table; 0 the plain one).
// The appended run is sorted by id and normalized in ascending id order.
// Each contributing level's run is scattered into acc in the order the
// backoff walk visits the levels, longest context first, so every id's
// mass is summed in that order and every value is reproducible bit for
// bit; the run is then gathered in ascending id order.
func (t *ngramTable) predict(acc *accum, dst []entry, ctx []int, seed uint64) []entry {
	hs := t.hashes(ctx)
	return t.predictHashed(acc, dst, &hs, seed)
}

// predictHashed is predict over a context already hashed by t.hashes.
func (t *ngramTable) predictHashed(acc *accum, dst []entry, hs *ctxHashes, seed uint64) []entry {
	acc.fit(t.idBound)
	lo, hi := len(acc.seen), -1 // the bitmap words touched
	weight := 1.0
	ms := fmix(seed)
	part := t.parts[t.partOf(ms)]
	for i := hs.n - 1; i >= 0; i-- {
		l := &part[i]
		s := l.find(fmix(hs.h[i] ^ ms))
		if s == nil || s.total <= 0 {
			continue
		}
		keep := s.total / (s.total + wbScale*float64(s.n))
		if t.levels[i] == 0 {
			keep = 1 // terminal level keeps all remaining mass
		}
		scale, total := weight*keep, s.total
		run := l.slab[s.start : s.start+s.n]
		for _, e := range run {
			acc.v[e.id] += scale * (e.v / total)
			acc.seen[e.id>>6] |= 1 << (e.id & 63)
		}
		lo, hi = min(lo, int(run[0].id>>6)), max(hi, int(run[len(run)-1].id>>6))
		weight *= 1 - keep
		if weight < 1e-9 {
			break
		}
	}
	start := len(dst)
	dst, total := acc.gather(dst, lo, hi)
	// normalize, with the sum gather took in the same ascending order.
	if total > 0 {
		for i := range dst[start:] {
			dst[start+i].v /= total
		}
	}
	return dst
}

// contexts returns level i's context count over every part.
func (t *ngramTable) contexts(i int) int {
	n := 0
	for _, part := range t.parts {
		n += part[i].ctxs
	}
	return n
}
