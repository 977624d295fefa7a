package trace

import (
	"sort"
	"sync"
	"time"
)

// recorder is the flight recorder: a bounded ring of the last N
// completed traces plus an always-retained reservoir of the K slowest
// traces seen since startup, so the interesting outliers survive long
// after the ring has cycled past them. It stores live *Trace pointers
// and snapshots at read time, which lets spans that End after
// Trace.Finish still appear in the recorded tree.
type recorder struct {
	mu   sync.Mutex
	ring []*Trace // ring[next-1] is the newest entry
	next int
	full bool

	slowest []slowEntry // unordered; the minimum is replaced on insert
	k       int
}

type slowEntry struct {
	tr  *Trace
	dur time.Duration // fixed at Finish time
}

func newRecorder(ringSize, slowestK int) *recorder {
	return &recorder{ring: make([]*Trace, ringSize), k: slowestK}
}

func (r *recorder) record(tr *Trace, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring[r.next] = tr
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	if len(r.slowest) < r.k {
		r.slowest = append(r.slowest, slowEntry{tr: tr, dur: dur})
		return
	}
	min := 0
	for i := 1; i < len(r.slowest); i++ {
		if r.slowest[i].dur < r.slowest[min].dur {
			min = i
		}
	}
	if dur > r.slowest[min].dur {
		r.slowest[min] = slowEntry{tr: tr, dur: dur}
	}
}

// completed snapshots every retained trace, ring entries newest first,
// then any slowest-reservoir traces the ring has already evicted
// (slowest of those first).
func (r *recorder) completed() []Snapshot {
	r.mu.Lock()
	var traces []*Trace
	seen := make(map[*Trace]bool)
	n := len(r.ring)
	if !r.full {
		n = r.next
	}
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		tr := r.ring[idx]
		if tr != nil && !seen[tr] {
			seen[tr] = true
			traces = append(traces, tr)
		}
	}
	slow := append([]slowEntry(nil), r.slowest...)
	r.mu.Unlock()

	sort.Slice(slow, func(a, b int) bool { return slow[a].dur > slow[b].dur })
	for _, e := range slow {
		if !seen[e.tr] {
			seen[e.tr] = true
			traces = append(traces, e.tr)
		}
	}
	out := make([]Snapshot, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.SnapshotNow())
	}
	return out
}

// lookup finds a retained trace by ID, scanning ring then reservoir.
func (r *recorder) lookup(id string) (Snapshot, bool) {
	r.mu.Lock()
	var hit *Trace
	for _, tr := range r.ring {
		if tr != nil && tr.id == id {
			hit = tr
			break
		}
	}
	if hit == nil {
		for _, e := range r.slowest {
			if e.tr.id == id {
				hit = e.tr
				break
			}
		}
	}
	r.mu.Unlock()
	if hit == nil {
		return Snapshot{}, false
	}
	return hit.SnapshotNow(), true
}
