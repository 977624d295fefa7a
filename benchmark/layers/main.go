// Command layers is the benchmark's in-process probe program: it times
// one public call into each layer on inputs shaped like the workloads'
// and prints ns, allocations and bytes per operation as JSON. The
// benchmark driver runs it as a subprocess during the per-layer pass.
//
// It calls only exported functions and methods and builds no struct
// literal of a model or spec type, so those layers can change their
// representation without touching this directory. The self time of an
// outer layer is its probe minus the next layer inward on the same
// inputs: the three serving probes all answer repeated requests from
// the result cache, so cluster.fleet.generate − serve.engine.generate is
// the fleet's routing and dispatch, and serve.handler.generate −
// serve.engine.generate is HTTP decoding, JSON and middleware.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/spec/grammar"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// result is one probe's line in the output.
type result struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	BOp      float64 `json:"b_op"`
	Ops      int     `json:"ops"`
}

// budget is how long one probe keeps calling its operation. Probes are
// a per-layer reading, not a gate, so a short budget is enough.
const budget = 200 * time.Millisecond

var results []result

// probe times op until the budget is spent. op returns how many
// operations the call performed (1 for most; tokens for a decode) or 0
// when its prepared inputs have run out.
func probe(name string, op func(i int) int) {
	op(0) // first-use allocations and lazy set-up stay out of the reading
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for i := 1; time.Since(start) < budget; i++ {
		n := op(i)
		if n == 0 {
			break
		}
		ops += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if ops == 0 {
		check(fmt.Errorf("probe %s performed no operation", name))
	}
	n := float64(ops)
	results = append(results, result{
		Name:     name,
		NsOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsOp: float64(after.Mallocs-before.Mallocs) / n,
		BOp:      float64(after.TotalAlloc-before.TotalAlloc) / n,
		Ops:      ops,
	})
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
}

// train mirrors vgend's start-up at its default flags, so the probes
// run against the model the daemon serves.
func train() *model.Model {
	examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 1, Items: 3400})
	var corpus []string
	for _, ex := range examples[:min(len(examples), 1500)] {
		corpus = append(corpus, model.FormatPrompt(ex.Prompt)+ex.Code)
	}
	cfg := model.CodeLlamaSim()
	return model.Train(tokenizer.Train(corpus, cfg.VocabSize), cfg, model.SchemeOurs, examples)
}

// longPrompt is shaped like a fleet_shared_prefix request: three bench
// prompts as a shared stem, then a tail no other request has.
func longPrompt(stem, variant int) string {
	p := bench.All()
	a, b, c := p[stem%len(p)], p[(stem+7)%len(p)], p[(stem+19)%len(p)]
	return fmt.Sprintf("%s\n%s\n%s\nVariant %d: name the module top_v%d.", a.Prompt, b.Prompt, c.Prompt, variant, variant)
}

func main() {
	m := train()
	tk := m.Tokenizer()
	probs := bench.All()
	ctx := context.Background()

	shortIDs := make([][]int, len(probs))
	for i, p := range probs {
		shortIDs[i] = model.CanonicalPromptIDs(tk, p.Prompt)
	}
	// Distinct long prompts over a few stems; every probe that consumes
	// never-seen tails takes its own range of variants.
	const variants = 4000
	longIDs := func(stem, variant int) []int {
		return model.CanonicalPromptIDs(tk, longPrompt(stem, variant))
	}

	probe("tokenizer.encode", func(i int) int {
		_ = model.CanonicalPromptIDs(tk, longPrompt(i%8, i))
		return 1
	})
	probe("model.newgen", func(i int) int {
		_ = m.NewGen(shortIDs[i%len(shortIDs)])
		return 1
	})

	hitCache := model.NewTrieCache(0)
	for _, ids := range shortIDs {
		hitCache.Gen(m, ids)
	}
	probe("model.trie.hit", func(i int) int {
		_ = hitCache.Gen(m, shortIDs[i%len(shortIDs)])
		return 1
	})

	forkCache := model.NewTrieCache(0)
	forkCache.Gen(m, longIDs(0, variants))
	forkInputs := make([][]int, 400)
	for i := range forkInputs {
		forkInputs[i] = longIDs(0, i)
	}
	probe("model.trie.fork", func(i int) int {
		if i >= len(forkInputs) {
			return 0
		}
		_ = forkCache.Gen(m, forkInputs[i])
		return 1
	})

	// A byte budget far below the working set: every insert evicts.
	evictCache := model.NewTrieCache(256 << 10)
	evictInputs := make([][]int, 400)
	for i := range evictInputs {
		evictInputs[i] = longIDs(i%8, variants+1+i)
	}
	probe("model.trie.insert_evict", func(i int) int {
		if i >= len(evictInputs) {
			return 0
		}
		_ = evictCache.Gen(m, evictInputs[i])
		return 1
	})

	// Mid-decode: the prompt plus the first half of a real generation.
	dec := core.NewDecoder(m).WithSessionCache(model.NewTrieCache(0))
	sample := dec.Generate(probs[0].Prompt, core.Options{Strategy: "ours", Temperature: 0.5, Seed: 1})
	seq := append(append([]int{}, shortIDs[0]...), sample.Tokens[:len(sample.Tokens)/2]...)
	gen := m.NewGen(shortIDs[0])
	probe("model.forward", func(int) int {
		_ = gen.Forward(seq)
		return 1
	})

	// One decode per call through the stepwise API the scheduler uses;
	// operations are clean tokens, so ns_op is wall time per token on one
	// thread — the base of serve.sched.parallel_efficiency.
	for _, strategy := range []string{"ntp", "ours", "lookup-tree", "grammar-tree"} {
		probe("core.decode."+strategy, func(i int) int {
			opts := core.Options{Strategy: strategy, Temperature: 0.5, Seed: int64(i)}
			st, err := dec.BeginDecode(ctx, shortIDs[i%len(shortIDs)], opts, nil)
			check(err)
			for !st.Step() {
			}
			res, err := st.Finish()
			check(err)
			return max(1, len(res.CleanTokens))
		})
	}

	// One decoding step's oracle: built over the text so far, then asked
	// about a handful of candidate extensions.
	base := sample.Text[:len(sample.Text)/2]
	exts := []string{" ", "begin", " <= ", ";\n", "endmodule"}
	probe("spec.grammar.check", func(int) int {
		st := grammar.Begin(base)
		for _, ext := range exts {
			_ = st.Check(ext)
		}
		return 1
	})

	tracer := trace.New(trace.Config{})
	probe("trace.span", func(int) int {
		tr := tracer.StartTrace(trace.NewID())
		root := tr.Start(nil, trace.KindRequest, "")
		tr.Start(root, trace.KindSweep, "").End()
		root.End()
		tr.Finish("ok")
		return 1
	})

	// The three serving layers on the same inputs: eight fleet-style long
	// prompts, each decoded once before the reading and then repeated —
	// the result-cache path, which is what fleet_shared_prefix's median
	// request takes. What is left is per-request overhead: encoding the
	// prompt for the cache key, the LRU, and each outer layer's own work.
	const hot = 8
	serveReq := func(i int) serve.Request {
		return serve.Request{
			Prompt:  longPrompt(i%hot, 10000+i%hot),
			Options: core.Options{Strategy: "ours", MaxNewTokens: 8, Seed: int64(i % hot)},
		}
	}
	warm := func(generate func(i int)) {
		for i := 0; i < hot; i++ {
			generate(i)
		}
	}
	eng := serve.NewEngine(m, serve.Config{})
	engGenerate := func(i int) {
		_, err := eng.Generate(ctx, serveReq(i))
		check(err)
	}
	warm(engGenerate)
	probe("serve.engine.generate", func(i int) int {
		engGenerate(i)
		return 1
	})
	eng.Close()

	heng := serve.NewEngine(m, serve.Config{})
	handler := serve.NewServer(heng).Handler()
	post := func(i int) {
		r := serveReq(i)
		body, _ := json.Marshal(map[string]any{ // strings and ints always marshal
			"prompt": r.Prompt, "strategy": "ours", "max_new_tokens": 8, "seed": r.Options.Seed,
		})
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			check(fmt.Errorf("handler status %d: %s", rec.Code, rec.Body))
		}
	}
	warm(post)
	probe("serve.handler.generate", func(i int) int {
		post(i)
		return 1
	})
	heng.Close()

	router, err := cluster.NewRouter("prefix-affinity")
	check(err)
	fleet, err := cluster.New([]cluster.ReplicaSpec{
		{Name: "r0", Model: m}, {Name: "r1", Model: m},
	}, cluster.Config{Router: router})
	check(err)
	fleetGenerate := func(i int) {
		_, err := fleet.Generate(ctx, serveReq(i))
		check(err)
	}
	warm(fleetGenerate)
	probe("cluster.fleet.generate", func(i int) int {
		fleetGenerate(i)
		return 1
	})
	fleet.Close()

	check(json.NewEncoder(os.Stdout).Encode(map[string]any{"probes": results}))
}
