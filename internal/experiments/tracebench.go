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

// TraceBenchConfig sizes the overhead measurement.
type TraceBenchConfig struct {
	// Requests per timed pass (default 24).
	Requests int
	// Tokens bounds each decode (default 32).
	Tokens int
	// Repeats is the number of timed passes per mode; the row keeps the
	// fastest (default 5). Min-of-N is the standard defense against
	// scheduler and GC noise in a wall-clock gate.
	Repeats int
}

func (c TraceBenchConfig) withDefaults() TraceBenchConfig {
	if c.Requests <= 0 {
		c.Requests = 24
	}
	if c.Tokens <= 0 {
		c.Tokens = 32
	}
	if c.Repeats <= 0 {
		c.Repeats = 5
	}
	return c
}

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

// TraceBench measures both modes and returns their rows ("off" first)
// plus the generated texts per mode for the byte-identity differential.
func TraceBench(m *model.Model, prompts []string, cfg TraceBenchConfig) ([]TraceBenchRow, [][]string, error) {
	cfg = cfg.withDefaults()
	if len(prompts) == 0 {
		return nil, nil, fmt.Errorf("trace bench needs prompts")
	}
	var rows []TraceBenchRow
	var texts [][]string
	for _, mode := range []string{"off", "on"} {
		row, modeTexts, err := driveTraceMode(m, prompts, cfg, mode == "on")
		if err != nil {
			return rows, texts, err
		}
		rows = append(rows, row)
		texts = append(texts, modeTexts)
	}
	return rows, texts, nil
}

// driveTraceMode runs all repeats of one mode on a fresh engine.
func driveTraceMode(m *model.Model, prompts []string, cfg TraceBenchConfig, traced bool) (TraceBenchRow, []string, error) {
	eng := serve.NewEngine(m, serve.Config{
		Workers: 1, CacheSize: -1, NoDedup: true,
		QueueSize: cfg.Requests + 4,
	})
	defer eng.Close()
	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(trace.Config{RingSize: cfg.Requests * (cfg.Repeats + 1)})
	}
	mode := "off"
	if traced {
		mode = "on"
	}

	req := func(i int) serve.Request {
		return serve.Request{
			Prompt: prompts[i%len(prompts)],
			Options: core.Options{
				Strategy: "ours", Temperature: 0.6,
				MaxNewTokens: cfg.Tokens, Seed: int64(i),
			},
		}
	}
	runPass := func(pass int, record []string) (time.Duration, int, error) {
		tokens := 0
		t0 := time.Now()
		for i := 0; i < cfg.Requests; i++ {
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
	texts := make([]string, cfg.Requests)
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

	row := TraceBenchRow{Tracing: mode, Requests: cfg.Requests, Repeats: cfg.Repeats}
	best := time.Duration(0)
	for pass := 0; pass < cfg.Repeats; pass++ {
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

// RunTraceBench trains one model and runs the tracing overhead bench
// over the benchmark prompt set.
func (r *Runner) RunTraceBench(cfg TraceBenchConfig) ([]TraceBenchRow, [][]string, error) {
	mcfg := r.setup.Models[0]
	m := model.Train(r.toks[mcfg.Name], mcfg, model.SchemeOurs, r.examples)
	return TraceBench(m, r.speedPrompts(), cfg)
}
