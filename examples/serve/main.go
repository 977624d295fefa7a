// Example serve: embed the concurrent generation engine in-process —
// train a model, dispatch a prompt burst through the continuous
// scheduler, replay it to watch the LRU cache short-circuit, and stream
// one generation fragment-by-fragment.
package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
)

func main() {
	// 1. Train the syntax-enriched model (same recipe as quickstart).
	examples, stats := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 7, Items: 2000})
	fmt.Println("corpus:", stats)
	cfg := model.CodeLlamaSim()
	m := model.Train(model.TrainTokenizer(cfg, examples), cfg, model.SchemeOurs, examples)

	// 2. Start an engine: persistent workers stepping the resident
	// decodes one verification step at a time, and an LRU over completed
	// generations. vgend serves exactly this over HTTP.
	eng := serve.NewEngine(m, serve.Config{Workers: 4, CacheSize: 64})
	defer eng.Close()

	// 3. Dispatch a burst of eight prompts as one batch.
	prompts := make([]string, 8)
	reqs := make([]serve.Request, 8)
	for i := range reqs {
		prompts[i] = examples[i].Prompt
		reqs[i] = serve.Request{
			Prompt:  prompts[i],
			Options: core.Options{Strategy: "ours", Temperature: 0.4, Seed: int64(i)},
		}
	}
	for i, resp := range eng.GenerateBatch(context.Background(), reqs) {
		if resp.Err != nil {
			fmt.Printf("[%d] error: %v\n", i, resp.Err)
			continue
		}
		r := resp.Result
		fmt.Printf("[%d] %3d tokens in %2d steps (%.1f tok/s simulated, cached=%v)\n",
			i, len(r.CleanTokens), r.Steps, r.TokensPerSecond(), resp.Cached)
	}

	// 4. Replay the same batch: every generation is an LRU hit.
	for i, resp := range eng.GenerateBatch(context.Background(), reqs) {
		if resp.Err == nil && resp.Cached {
			fmt.Printf("[%d] served from cache\n", i)
		}
	}

	// 5. Stream one generation step-by-step: with fragment-aligned
	// stops every step delivers complete syntactic fragments.
	fmt.Println("\nstreaming data_register:")
	resp, err := eng.Generate(context.Background(), serve.Request{
		Prompt:  "Create a simple Verilog module named data_register that assigns a 4-bit input data_in to a 4-bit output data_out on the positive edge of clk.",
		Options: core.Options{Strategy: "ours"},
		OnStep: func(ev core.StepEvent) {
			fmt.Printf("  step %2d: %2d tokens %q\n", ev.Step, len(ev.Tokens), ev.Text)
		},
	})
	if err != nil {
		fmt.Println("stream error:", err)
		return
	}
	fmt.Printf("done: %d steps, mean accepted %.2f\n", resp.Result.Steps, resp.Result.MeanAccepted())

	// 6. Engine metrics — what vgend exposes on GET /metrics.
	met := eng.Metrics()
	fmt.Printf("\nmetrics: requests=%d cacheHitRate=%.2f tok/s(wall)=%.0f tok/s(sim)=%.1f meanSweepOccupancy=%.1f\n",
		met.Requests, met.CacheHitRate, met.TokensPerSecWall, met.TokensPerSecSim, met.MeanSweepOccupancy)
}
