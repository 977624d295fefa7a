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
// for the byte-identity differential.
func TraceBench(m *model.Model, prompts []string, repeats int) ([]TraceBenchRow, [][]string, error) {
	if len(prompts) == 0 {
		return nil, nil, fmt.Errorf("trace bench needs prompts")
	}
	var rows []TraceBenchRow
	var texts [][]string
	for _, mode := range []string{"off", "on"} {
		row, modeTexts, err := driveTraceMode(m, prompts, repeats, mode)
		if err != nil {
			return rows, texts, err
		}
		rows = append(rows, row)
		texts = append(texts, modeTexts)
	}
	return rows, texts, nil
}

// driveTraceMode runs all repeats of one mode on a fresh engine.
func driveTraceMode(m *model.Model, prompts []string, repeats int, mode string) (TraceBenchRow, []string, error) {
	eng := serve.NewEngine(m, serve.Config{
		Workers: 1, CacheSize: -1, NoDedup: true,
		QueueSize: traceRequests + 4,
	})
	defer eng.Close()
	var tracer *trace.Tracer
	if mode == "on" {
		tracer = trace.New(trace.Config{RingSize: traceRequests * (repeats + 1)})
	}

	req := func(i int) serve.Request {
		return serve.Request{
			Prompt: prompts[i%len(prompts)],
			Options: core.Options{
				Strategy: "ours", Temperature: 0.6,
				MaxNewTokens: traceTokens, Seed: int64(i),
			},
		}
	}
	runPass := func(pass int, record []string) (time.Duration, int, error) {
		tokens := 0
		t0 := time.Now()
		for i := 0; i < traceRequests; i++ {
			ctx := context.Background()
			var tr *trace.Trace
			if tracer != nil {
				tr = tracer.StartTrace(fmt.Sprintf("tracebench-%d-%d", pass, i))
				root := tr.Start(nil, trace.KindRequest, "tracebench")
				ctx = trace.ContextWithSpan(trace.NewContext(ctx, tr), root)
			}
			resp, err := eng.Generate(ctx, req(i))
			if tr != nil {
				tr.Finish("200")
			}
			if err != nil || resp.Err != nil {
				return 0, 0, fmt.Errorf("trace bench %s request %d: %v / %v", mode, i, err, resp.Err)
			}
			tokens += len(resp.Result.CleanTokens)
			if record != nil {
				record[i] = resp.Result.Text
			}
		}
		return time.Since(t0), tokens, nil
	}

	// Warmup pass: session preparation and trie growth happen here, so
	// the timed passes of both modes start from the same cache state.
	texts := make([]string, traceRequests)
	if _, _, err := runPass(-1, texts); err != nil {
		return TraceBenchRow{}, nil, err
	}

	// Same rationale as the load gate: measure tracing overhead, not
	// collector scheduling. The GC-off window is scoped per mode with a
	// forced collection first — letting one mode's garbage pile into the
	// other's timed passes skews the comparison far more than tracing
	// itself does.
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)

	row := TraceBenchRow{Tracing: mode, Requests: traceRequests, Repeats: repeats}
	best := time.Duration(0)
	for pass := 0; pass < repeats; pass++ {
		d, tokens, err := runPass(pass, nil)
		if err != nil {
			return TraceBenchRow{}, nil, err
		}
		if best == 0 || d < best {
			best = d
			row.Tokens = tokens
		}
	}
	row.BestWallMS = float64(best) / float64(time.Millisecond)
	if best > 0 {
		row.TokensPerSec = float64(row.Tokens) / best.Seconds()
	}
	if tracer != nil {
		for _, snap := range tracer.Completed() {
			row.Spans += len(snap.Spans)
			row.Dropped += snap.Dropped
		}
	}
	return row, texts, nil
}
