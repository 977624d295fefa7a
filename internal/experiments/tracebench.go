package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TraceBench prices the observability tier: the same decode workload
// is driven twice through one engine architecture — once with no trace
// in the request context (every tracing call is a nil check) and once
// with a live tracer assembling the full span tree per request — and
// the rows report the throughput of each. CI gates the on/off overhead
// at a few percent: tracing that taxes the decode path does not get to
// stay on by default. The bench also proves output invariance: both
// modes must produce byte-identical generations, because a tracer that
// changes decode behavior is observing a different system.

const (
	// traceRequests is the request count per timed pass and traceTokens
	// the bound on each decode.
	traceRequests, traceTokens = 24, 32
	// TraceRepeats is the number of timed passes per mode the overhead
	// gate and evalbench run; the row keeps the fastest. Min-of-N is the
	// standard defense against scheduler and GC noise in a wall-clock
	// gate. (The byte-identity test runs one: it compares the recorded
	// texts, not the timing.)
	TraceRepeats = 5
)

// TraceBenchRow is one tracing mode's measured outcome.
type TraceBenchRow struct {
	Tracing  string `json:"tracing"` // "off" or "on"
	Requests int    `json:"requests"`
	Repeats  int    `json:"repeats"`
	// BestWallMS is the fastest timed pass; TokensPerSec derives from it.
	BestWallMS   float64 `json:"best_wall_ms"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	Tokens       int     `json:"tokens"`
	// Spans/Dropped aggregate over the "on" pass's recorded traces
	// (zero for "off"): evidence the tracer actually traced.
	Spans   int   `json:"spans,omitempty"`
	Dropped int64 `json:"dropped,omitempty"`
}

// TraceBench measures both modes over repeats timed passes each and
// returns their rows ("off" first) plus the generated texts per mode
// for the byte-identity differential. The two modes run on their own
// engines but in lockstep: each request of a pass goes to both, back to
// back, in an order that alternates request by request, and a mode's
// pass time is the sum of its own requests' times. A burst of machine
// load then lands on both modes alike instead of reading as tracing
// overhead, as it did when one mode's passes all ran before the
// other's.
func TraceBench(m *model.Model, prompts []string, repeats int) ([]TraceBenchRow, [][]string, error) {
	if len(prompts) == 0 {
		return nil, nil, fmt.Errorf("trace bench needs prompts")
	}
	modes := []*traceMode{newTraceMode(m, prompts, repeats, "off"), newTraceMode(m, prompts, repeats, "on")}
	for _, tm := range modes {
		defer tm.eng.Close()
	}

	// Warmup pass: session preparation and trie growth happen here, so
	// the timed passes of both modes start from the same cache state.
	texts := make([][]string, len(modes))
	for k, tm := range modes {
		texts[k] = make([]string, traceRequests)
		for i := range texts[k] {
			_, _, text, err := tm.request(-1, i)
			if err != nil {
				return nil, nil, err
			}
			texts[k][i] = text
		}
	}

	// Same rationale as the load gate: measure tracing overhead, not
	// collector scheduling. The collector is off for the timed passes and
	// a forced collection precedes each one, so no pass pays for an
	// earlier pass's garbage.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	best := make([]time.Duration, len(modes))
	for pass := 0; pass < repeats; pass++ {
		runtime.GC()
		wall := make([]time.Duration, len(modes))
		tokens := make([]int, len(modes))
		for i := 0; i < traceRequests; i++ {
			for j := range modes {
				k := j
				if (pass+i)%2 == 1 {
					k = len(modes) - 1 - j
				}
				d, n, _, err := modes[k].request(pass, i)
				if err != nil {
					return nil, nil, err
				}
				wall[k] += d
				tokens[k] += n
			}
		}
		for k, tm := range modes {
			if best[k] == 0 || wall[k] < best[k] {
				best[k] = wall[k]
				tm.row.Tokens = tokens[k]
			}
		}
	}

	rows := make([]TraceBenchRow, len(modes))
	for k, tm := range modes {
		row := tm.row
		row.BestWallMS = float64(best[k]) / float64(time.Millisecond)
		if best[k] > 0 {
			row.TokensPerSec = float64(row.Tokens) / best[k].Seconds()
		}
		if tm.tracer != nil {
			for _, snap := range tm.tracer.Completed() {
				row.Spans += len(snap.Spans)
				row.Dropped += snap.Dropped
			}
		}
		rows[k] = row
	}
	return rows, texts, nil
}

// traceMode is one tracing mode's engine, tracer (nil when off) and row.
type traceMode struct {
	eng     *serve.Engine
	tracer  *trace.Tracer
	prompts []string
	row     TraceBenchRow
}

func newTraceMode(m *model.Model, prompts []string, repeats int, mode string) *traceMode {
	tm := &traceMode{
		eng: serve.NewEngine(m, serve.Config{
			Workers: 1, CacheSize: -1, NoDedup: true,
			QueueSize: traceRequests + 4,
		}),
		prompts: prompts,
		row:     TraceBenchRow{Tracing: mode, Requests: traceRequests, Repeats: repeats},
	}
	if mode == "on" {
		tm.tracer = trace.New(trace.Config{RingSize: traceRequests * (repeats + 1)})
	}
	return tm
}

// request drives request i of a pass and returns its wall time, clean
// token count and generated text.
func (tm *traceMode) request(pass, i int) (time.Duration, int, string, error) {
	t0 := time.Now()
	ctx := context.Background()
	var tr *trace.Trace
	if tm.tracer != nil {
		tr = tm.tracer.StartTrace(fmt.Sprintf("tracebench-%d-%d", pass, i))
		root := tr.Start(nil, trace.KindRequest, "tracebench")
		ctx = trace.ContextWithSpan(trace.NewContext(ctx, tr), root)
	}
	resp, err := tm.eng.Generate(ctx, serve.Request{
		Prompt: tm.prompts[i%len(tm.prompts)],
		Options: core.Options{
			Strategy: "ours", Temperature: 0.6,
			MaxNewTokens: traceTokens, Seed: int64(i),
		},
	})
	if tr != nil {
		tr.Finish("200")
	}
	d := time.Since(t0)
	if err != nil || resp.Err != nil {
		return 0, 0, "", fmt.Errorf("trace bench %s request %d: %v / %v", tm.row.Tracing, i, err, resp.Err)
	}
	return d, len(resp.Result.CleanTokens), resp.Result.Text, nil
}
