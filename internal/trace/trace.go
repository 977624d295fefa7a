// Package trace is a zero-dependency request-tracing layer for the
// serving stack: a Tracer owns per-span-kind duration sums and a
// flight recorder; each request assembles one Trace out of at most
// Config.MaxSpans Spans, appended under the trace's lock.
//
// Every method on *Tracer, *Trace and *Span is nil-safe: with tracing
// disabled the request path carries nil pointers and every call is a
// single branch, which is what keeps the tracing-off and tracing-on
// decode paths byte-identical and the overhead within the trace-gate
// bound.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds double as the phase labels of the
// vgend_phase_seconds_total{phase} metric family.
const (
	KindRequest     = "request"      // root: one per served request
	KindRouter      = "router"       // cluster routing decision
	KindAttempt     = "attempt"      // the request's attempt on a replica (primary/steal)
	KindQueue       = "queue"        // enqueue -> scheduler pickup
	KindDecode      = "decode"       // BeginDecode -> Finish
	KindSessionPrep = "session_prep" // prompt prefill / trie attach
	KindSweep       = "sweep"        // one draft+verify verification sweep
	KindDraft       = "draft"        // phase-only: drafting time inside sweeps
	KindVerify      = "verify"       // phase-only: verification forward time
)

// Attr is one key/value annotation on a span. Values are stored as
// strings; use Span.SetAttr/SetAttrInt.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a request. Spans are created via
// Trace.Start and closed with End; attributes may be set until the
// owning Trace is snapshotted. Index 0 is the root, and Parent == -1
// marks a root span.
type Span struct {
	tr     *Trace
	index  int32
	parent int32
	kind   string
	name   string
	start  time.Time
	end    time.Time
	attrs  []Attr
}

// Config sizes a Tracer.
type Config struct {
	// MaxSpans bounds the spans one trace records; spans started past
	// the bound are counted as dropped, not recorded. Default 256.
	MaxSpans int
	// RingSize bounds the completed-trace ring. Default 256.
	RingSize int
	// SlowestK sizes the always-retained slowest-trace reservoir.
	// Default 16.
	SlowestK int
}

// Tracer owns the flight recorder and the per-span-kind duration
// accumulator shared by every trace it starts.
type Tracer struct {
	cfg Config
	rec *recorder

	phaseMu sync.Mutex
	phase   map[string]time.Duration
	started atomic.Uint64
}

// New builds a Tracer; zero config fields take defaults.
func New(cfg Config) *Tracer {
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 256
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.SlowestK <= 0 {
		cfg.SlowestK = 16
	}
	return &Tracer{
		cfg:   cfg,
		rec:   newRecorder(cfg.RingSize, cfg.SlowestK),
		phase: make(map[string]time.Duration),
	}
}

// NewID returns a fresh 16-hex-char request/trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall
		// back to a counter-free constant-prefix ID rather than panic.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// StartTrace begins a trace for one request. id may come from the
// client (X-Request-ID); empty picks a fresh one. Returns nil on a
// nil Tracer so disabled tracing threads nil all the way down.
func (t *Tracer) StartTrace(id string) *Trace {
	if t == nil {
		return nil
	}
	if id == "" {
		id = NewID()
	}
	t.started.Add(1)
	return &Trace{tracer: t, id: id, start: time.Now()}
}

// AddPhase folds a duration into the per-kind accumulator directly —
// used for phase-only kinds (draft/verify) measured inside a sweep
// without allocating a span per measurement.
func (t *Tracer) AddPhase(kind string, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.phaseMu.Lock()
	t.phase[kind] += d
	t.phaseMu.Unlock()
}

// PhaseSeconds snapshots the per-span-kind duration sums, in seconds.
func (t *Tracer) PhaseSeconds() map[string]float64 {
	if t == nil {
		return nil
	}
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	out := make(map[string]float64, len(t.phase))
	for k, v := range t.phase {
		out[k] = v.Seconds()
	}
	return out
}

// TracesStarted reports how many traces this Tracer has begun.
func (t *Tracer) TracesStarted() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Completed lists recorded traces, most recent first, slowest-K
// reservoir included (deduplicated by identity).
func (t *Tracer) Completed() []Snapshot {
	if t == nil {
		return nil
	}
	return t.rec.completed()
}

// Lookup finds a recorded trace by ID.
func (t *Tracer) Lookup(id string) (Snapshot, bool) {
	if t == nil {
		return Snapshot{}, false
	}
	return t.rec.lookup(id)
}

// Trace is one request's span tree. One mutex guards the span list,
// the drop count, span field writes and snapshots: a request starts a
// handful of spans, so goroutines starting them at once contend only
// briefly.
type Trace struct {
	tracer *Tracer
	id     string
	start  time.Time

	mu       sync.Mutex
	spans    []*Span // at most tracer.cfg.MaxSpans
	dropped  int64
	end      time.Time
	status   string
	finished bool
}

// Start opens a span under parent (nil parent = child of the root, or
// the root itself if none exists yet). Returns nil — a no-op span —
// on a nil trace or once the trace holds MaxSpans spans.
func (tr *Trace) Start(parent *Span, kind, name string) *Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= tr.tracer.cfg.MaxSpans {
		tr.dropped++
		return nil
	}
	s := &Span{tr: tr, index: int32(len(tr.spans)), parent: -1, kind: kind, name: name, start: time.Now()}
	if parent != nil && parent.tr == tr {
		s.parent = parent.index
	} else if s.index > 0 {
		s.parent = 0 // orphan spans hang off the root rather than floating
	}
	tr.spans = append(tr.spans, s)
	return s
}

// Finish closes the trace with a status and hands it to the flight
// recorder. Idempotent; spans may still End after Finish — they land in the recorded snapshot because the recorder
// stores the live *Trace and snapshots at read time.
func (tr *Trace) Finish(status string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.end = time.Now()
	tr.status = status
	dur := tr.end.Sub(tr.start)
	tr.mu.Unlock()
	tr.tracer.rec.record(tr, dur)
}

// AddPhase folds a duration into the owning tracer's per-kind sums —
// the Trace-side handle for phase-only measurements (draft/verify)
// accumulated away from any span.
func (tr *Trace) AddPhase(kind string, d time.Duration) {
	if tr == nil {
		return
	}
	tr.tracer.AddPhase(kind, d)
}

// End closes the span and folds its duration into the tracer's
// per-kind phase sums. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.end.IsZero() {
		s.tr.mu.Unlock()
		return
	}
	s.end = time.Now()
	d := s.end.Sub(s.start)
	s.tr.mu.Unlock()
	s.tr.tracer.AddPhase(s.kind, d)
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.tr.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, fmt.Sprintf("%d", value))
}

// Snapshot is an immutable view of a trace for JSON/debug rendering.
type Snapshot struct {
	ID         string         `json:"id"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Status     string         `json:"status"`
	Dropped    int64          `json:"dropped_spans,omitempty"`
	Spans      []SpanSnapshot `json:"spans"`
}

// SpanSnapshot is one span in a Snapshot. Times are milliseconds
// relative to the trace start; EndMS < 0 marks a still-open span.
type SpanSnapshot struct {
	Index   int     `json:"index"`
	Parent  int     `json:"parent"`
	Kind    string  `json:"kind"`
	Name    string  `json:"name,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	DurMS   float64 `json:"dur_ms"`
	Attrs   []Attr  `json:"attrs,omitempty"`
}

// SnapshotNow captures the trace's current state.
func (tr *Trace) SnapshotNow() Snapshot {
	if tr == nil {
		return Snapshot{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	snap := Snapshot{
		ID:      tr.id,
		Start:   tr.start,
		Status:  tr.status,
		Dropped: tr.dropped,
	}
	if !tr.end.IsZero() {
		snap.DurationMS = float64(tr.end.Sub(tr.start)) / float64(time.Millisecond)
	}
	for _, s := range tr.spans {
		ss := SpanSnapshot{
			Index:   int(s.index),
			Parent:  int(s.parent),
			Kind:    s.kind,
			Name:    s.name,
			StartMS: float64(s.start.Sub(tr.start)) / float64(time.Millisecond),
			EndMS:   -1,
		}
		if !s.end.IsZero() {
			ss.EndMS = float64(s.end.Sub(tr.start)) / float64(time.Millisecond)
			ss.DurMS = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
		}
		ss.Attrs = append([]Attr(nil), s.attrs...)
		snap.Spans = append(snap.Spans, ss)
	}
	return snap
}

// Tree renders the span tree as indented text, one span per line:
//
//	request 3.4ms ok
//	  router [replica=r0 candidates=2] 0.0ms
//	  attempt [replica=r0 role=primary outcome=ok] 3.2ms
//	    queue 0.3ms
//	    decode [steps=7] 2.8ms
func (snap Snapshot) Tree() string {
	children := map[int][]int{}
	for i, s := range snap.Spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for _, c := range children {
		sort.Slice(c, func(a, b int) bool {
			return snap.Spans[c[a]].StartMS < snap.Spans[c[b]].StartMS
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s %.1fms\n", snap.ID, snap.Status, snap.DurationMS)
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		s := snap.Spans[idx]
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString(s.Kind)
		if s.Name != "" {
			fmt.Fprintf(&b, " %q", s.Name)
		}
		if len(s.Attrs) > 0 {
			b.WriteString(" [")
			for i, a := range s.Attrs {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%s", a.Key, a.Value)
			}
			b.WriteByte(']')
		}
		if s.EndMS >= 0 {
			fmt.Fprintf(&b, " %.2fms", s.DurMS)
		} else {
			b.WriteString(" (open)")
		}
		b.WriteByte('\n')
		for _, c := range children[idx] {
			walk(c, depth+1)
		}
	}
	for i, s := range snap.Spans {
		if s.Parent == -1 {
			walk(i, 0)
		}
	}
	return b.String()
}

type traceKey struct{}
type spanKey struct{}

// NewContext attaches a trace to a context.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext extracts the trace, nil if none.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// ContextWithSpan records the current parent span alongside the trace.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext extracts the current parent span, nil if none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
