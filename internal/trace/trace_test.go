package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.StartTrace("x") != nil {
		t.Fatal("nil tracer must start nil traces")
	}
	tr.AddPhase(KindDraft, time.Second)
	if got := tr.PhaseSeconds(); got != nil {
		t.Fatalf("nil tracer phase sums = %v", got)
	}
	var tc *Trace
	sp := tc.Start(nil, KindDecode, "")
	if sp != nil {
		t.Fatal("nil trace must start nil spans")
	}
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	tc.Finish("ok")
	ctx := NewContext(context.Background(), nil)
	if FromContext(ctx) != nil || SpanFromContext(ctx) != nil {
		t.Fatal("nil plumbing must round-trip nil")
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tcr := New(Config{})
	tr := tcr.StartTrace("req-1")
	root := tr.Start(nil, KindRequest, "POST /v1/generate")
	att := tr.Start(root, KindAttempt, "r0")
	att.SetAttr("role", "primary")
	att.SetAttrInt("try", 1)
	dec := tr.Start(att, KindDecode, "")
	dec.SetAttrInt("steps", 7)
	dec.End()
	att.End()
	root.End()
	tr.Finish("ok")

	snap, ok := tcr.Lookup("req-1")
	if !ok {
		t.Fatal("finished trace not in flight recorder")
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(snap.Spans))
	}
	if snap.Spans[0].Parent != -1 || snap.Spans[1].Parent != 0 || snap.Spans[2].Parent != 1 {
		t.Fatalf("bad parentage: %+v", snap.Spans)
	}
	tree := snap.Tree()
	for _, want := range []string{"trace req-1 ok", KindRequest, "role=primary", "steps=7"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// Attr overwrite keeps one entry.
	tr2 := tcr.StartTrace("")
	s := tr2.Start(nil, KindRequest, "")
	s.SetAttr("k", "a")
	s.SetAttr("k", "b")
	s.End()
	tr2.Finish("ok")
	got := tr2.SnapshotNow().Spans[0].Attrs
	if len(got) != 1 || got[0].Value != "b" {
		t.Fatalf("attr overwrite: %+v", got)
	}
}

func TestLateSpanEndVisibleAfterFinish(t *testing.T) {
	tcr := New(Config{})
	tr := tcr.StartTrace("late")
	root := tr.Start(nil, KindRequest, "")
	loser := tr.Start(root, KindAttempt, "r1")
	root.End()
	tr.Finish("ok")
	// A span that ends after the trace finished must still show up
	// closed in the recorded snapshot.
	loser.SetAttr("outcome", "canceled")
	loser.End()
	snap, _ := tcr.Lookup("late")
	var found bool
	for _, s := range snap.Spans {
		if s.Kind == KindAttempt {
			found = true
			if s.EndMS < 0 {
				t.Fatal("late-ended span still open in snapshot")
			}
			if len(s.Attrs) != 1 || s.Attrs[0].Value != "canceled" {
				t.Fatalf("late attr lost: %+v", s.Attrs)
			}
		}
	}
	if !found {
		t.Fatal("attempt span missing")
	}
}

func TestSlotOverflowDrops(t *testing.T) {
	tcr := New(Config{MaxSpans: 4})
	tr := tcr.StartTrace("ovf")
	for i := 0; i < 10; i++ {
		sp := tr.Start(nil, KindSweep, "")
		sp.End() // nil-safe past the cap
	}
	tr.Finish("ok")
	snap := tr.SnapshotNow()
	if snap.Dropped != 6 || len(snap.Spans) != 4 {
		t.Fatalf("snapshot dropped=%d spans=%d", snap.Dropped, len(snap.Spans))
	}
}

func TestConcurrentSpanClaims(t *testing.T) {
	tcr := New(Config{MaxSpans: 1024})
	tr := tcr.StartTrace("conc")
	root := tr.Start(nil, KindRequest, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Start(root, KindAttempt, fmt.Sprintf("g%d", g))
				sp.SetAttrInt("i", int64(i))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	tr.Finish("ok")
	snap := tr.SnapshotNow()
	if len(snap.Spans) != 801 {
		t.Fatalf("want 801 spans, got %d", len(snap.Spans))
	}
	for _, s := range snap.Spans[1:] {
		if s.Parent != 0 {
			t.Fatalf("span %d parent %d", s.Index, s.Parent)
		}
	}
}

func TestPhaseSums(t *testing.T) {
	tcr := New(Config{})
	tcr.AddPhase(KindDraft, 200*time.Millisecond)
	tcr.AddPhase(KindDraft, 300*time.Millisecond)
	tcr.AddPhase(KindVerify, time.Second)
	got := tcr.PhaseSeconds()
	if got[KindDraft] < 0.499 || got[KindDraft] > 0.501 {
		t.Fatalf("draft sum %v", got[KindDraft])
	}
	if got[KindVerify] != 1.0 {
		t.Fatalf("verify sum %v", got[KindVerify])
	}
	// Ending a span folds its kind too.
	tr := tcr.StartTrace("")
	sp := tr.Start(nil, KindQueue, "")
	sp.End()
	if _, ok := tcr.PhaseSeconds()[KindQueue]; !ok {
		t.Fatal("span End did not fold into phase sums")
	}
}

func TestRecorderRingAndSlowestReservoir(t *testing.T) {
	tcr := New(Config{RingSize: 4, SlowestK: 2})
	finish := func(id string, d time.Duration) {
		tr := tcr.StartTrace(id)
		tr.mu.Lock()
		tr.start = tr.start.Add(-d) // synthesize duration without sleeping
		tr.mu.Unlock()
		tr.Finish("ok")
	}
	finish("slow-a", 500*time.Millisecond)
	finish("slow-b", 900*time.Millisecond)
	for i := 0; i < 6; i++ {
		finish(fmt.Sprintf("fast-%d", i), time.Duration(i)*time.Millisecond)
	}
	// Ring (size 4) holds fast-2..fast-5; the slow pair must survive
	// in the reservoir.
	if _, ok := tcr.Lookup("fast-0"); ok {
		t.Fatal("fast-0 should have been evicted")
	}
	for _, id := range []string{"slow-a", "slow-b", "fast-5"} {
		if _, ok := tcr.Lookup(id); !ok {
			t.Fatalf("%s missing from recorder", id)
		}
	}
	all := tcr.Completed()
	if len(all) != 6 {
		t.Fatalf("completed = %d traces, want 6 (4 ring + 2 reservoir)", len(all))
	}
	if all[0].ID != "fast-5" {
		t.Fatalf("newest first, got %s", all[0].ID)
	}
	if all[4].ID != "slow-b" || all[5].ID != "slow-a" {
		t.Fatalf("reservoir order: %s, %s", all[4].ID, all[5].ID)
	}
}

func TestContextPlumbing(t *testing.T) {
	tcr := New(Config{})
	tr := tcr.StartTrace("ctx")
	root := tr.Start(nil, KindRequest, "")
	ctx := ContextWithSpan(NewContext(context.Background(), tr), root)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	if SpanFromContext(ctx) != root {
		t.Fatal("span lost in context")
	}
	if NewID() == NewID() {
		t.Fatal("IDs must be unique")
	}
}
