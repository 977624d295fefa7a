package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
)

// LoadBench measures the quantity the continuous scheduler exists to
// protect: short-request latency while a long decode shares the engine.
// One engine runs two phases — unloaded (sequential short decodes,
// nothing else in flight) and loaded (the same shorts while a
// background client keeps exactly one long decode in flight
// throughout) — and the row reports the loaded / unloaded p95 ratio. A
// dispatcher that ran one decode at a time would make a short wait for
// the long's entire remainder; the continuous batcher admits the short
// into a free batch slot at the next step boundary, so it runs beside
// the long and the ratio stays near 1. CI pins that bound.

// The latency-under-load scenario's sizes. Nobody varies them: the
// gate, the benchmark and evalbench all measure this one scenario.
const (
	// loadShorts is the measured short-request count per phase.
	loadShorts = 60
	// loadShortTokens/loadLongTokens bound the two decode lengths.
	// Shorts use the paper's speculative strategy; the long decode is
	// plain NTP — one token per forward pass, the worst case to sit
	// behind.
	loadShortTokens, loadLongTokens = 12, 192
	// loadThinkTime is the client pause between shorts: the arrival gap
	// of interactive traffic, so each short arrives while the long
	// decode is mid-flight rather than queued behind the previous short.
	loadThinkTime = 2 * time.Millisecond
	// loadBenchSeedBase seeds the measured shorts; both phases reuse it
	// so they decode the identical request set.
	loadBenchSeedBase = 1000
)

// LoadBenchRow is the measured outcome. Latencies are wall-clock at the
// client, in milliseconds.
type LoadBenchRow struct {
	Shorts int
	// Unloaded/Loaded short-request latency.
	UnloadedMeanMS, UnloadedP95MS float64
	LoadedMeanMS, LoadedP95MS     float64
	// LatencyRatio is LoadedP95MS / UnloadedP95MS — the gated number.
	LatencyRatio float64
	// LongDecodes counts background long decodes completed during the
	// loaded phase. Interleaved counts the short-decode steps that ended
	// between two steps of one long decode: with none, no short ever
	// advanced beside the long.
	LongDecodes, Interleaved int
}

// stepOrder records, in the order their steps end, which decode each
// step belonged to: a long decode's number, or -1 for a short.
type stepOrder struct {
	mu  sync.Mutex
	ids []int
}

func (o *stepOrder) add(id int) {
	o.mu.Lock()
	o.ids = append(o.ids, id)
	o.mu.Unlock()
}

// interleaved counts the short steps that ended between two steps of
// the same long decode.
func (o *stepOrder) interleaved() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, shorts, long := 0, 0, -1
	for _, id := range o.ids {
		switch {
		case id < 0:
			shorts++
		case id == long:
			n, shorts = n+shorts, 0
		default:
			long, shorts = id, 0
		}
	}
	return n
}

// LoadBench runs the two-phase scenario on an engine with two workers
// and the default batch width, so a short joins the running batch
// beside the long decode instead of waiting for it.
func LoadBench(m *model.Model, prompts []string) (LoadBenchRow, error) {
	if len(prompts) < 2 {
		return LoadBenchRow{}, fmt.Errorf("load bench needs at least 2 prompts, got %d", len(prompts))
	}
	// The gate measures scheduler-induced latency, not collector-induced
	// latency: the background decode allocates on every step, and on a
	// single-core CI runner the resulting GC assists land in the loaded
	// phase's short-request tail, swamping the millisecond-scale
	// scheduling effect under test. Collect now, then hold GC off for
	// the measurement (the phases run on a bounded heap for about a
	// second each) and restore the collector on the way out.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	runtime.GC()
	longPrompt, shortPrompts := prompts[0], prompts[1:]
	eng := serve.NewEngine(m, serve.Config{
		Workers: 2, QueueSize: 4 * loadShorts, CacheSize: -1,
	})
	defer eng.Close()
	ctx := context.Background()
	var order stepOrder
	shortReq := func(i int, seed int64) serve.Request {
		return serve.Request{
			Prompt: shortPrompts[i%len(shortPrompts)],
			Options: core.Options{
				Strategy: "ours", Temperature: 0.6,
				MaxNewTokens: loadShortTokens, Seed: seed,
			},
			OnStep: func(core.StepEvent) { order.add(-1) },
		}
	}
	// Warm the session cache over the whole prompt set so neither phase
	// pays first-touch prompt preparation the other skipped.
	for i := range shortPrompts {
		if resp, err := eng.Generate(ctx, shortReq(i, -1)); err != nil || resp.Err != nil {
			return LoadBenchRow{}, fmt.Errorf("warmup %d: %v / %v", i, err, resp.Err)
		}
	}

	// Both phases measure the identical request set — same prompts,
	// same seeds — so the loaded/unloaded ratio isolates scheduling:
	// per-request decode work (which varies with the sampled draft
	// trees) cancels instead of adding workload noise to the tail.
	//
	// Each phase discards a short ramp before measuring: the loaded
	// phase only reaches steady state once the background decode's
	// session path is cached (its first passes grow the trie and the
	// heap), and the gate pins the steady-state contrast, not the ramp.
	// Both phases discard identically so neither gets a head start.
	const rampShorts = 16
	measure := func(seedBase int64) ([]float64, error) {
		lat := make([]float64, 0, loadShorts)
		for i := 0; i < rampShorts+loadShorts; i++ {
			time.Sleep(loadThinkTime)
			t0 := time.Now()
			resp, err := eng.Generate(ctx, shortReq(i, seedBase+int64(i)))
			if err != nil || resp.Err != nil {
				return nil, fmt.Errorf("short %d: %v / %v", i, err, resp.Err)
			}
			if i >= rampShorts {
				lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
		return lat, nil
	}

	unloaded, err := measure(loadBenchSeedBase)
	if err != nil {
		return LoadBenchRow{}, err
	}

	// Loaded phase: a background client keeps exactly one long NTP
	// decode in flight (re-issuing as each completes) until the last
	// short is answered.
	var stop atomic.Bool
	longStarted := make(chan struct{})
	var startOnce sync.Once
	longDone := make(chan int, 1)
	longErr := make(chan error, 1)
	go func() {
		n := 0
		for !stop.Load() {
			req := serve.Request{
				Prompt: longPrompt,
				Options: core.Options{
					Strategy: "ntp", MaxNewTokens: loadLongTokens, Seed: int64(n),
				},
				// The first step of the first long decode opens the gate:
				// shorts are only measured against a genuinely loaded engine.
				OnStep: func(core.StepEvent) {
					startOnce.Do(func() { close(longStarted) })
					order.add(n)
				},
			}
			resp, err := eng.Generate(ctx, req)
			if err != nil || resp.Err != nil {
				longErr <- fmt.Errorf("long decode %d: %v / %v", n, err, resp.Err)
				longDone <- n
				return
			}
			n++
		}
		longDone <- n
	}()
	select {
	case <-longStarted:
	case err := <-longErr:
		<-longDone
		return LoadBenchRow{}, err
	}
	loaded, err := measure(loadBenchSeedBase)
	stop.Store(true)
	longDecodes := <-longDone
	select {
	case lerr := <-longErr:
		return LoadBenchRow{}, lerr
	default:
	}
	if err != nil {
		return LoadBenchRow{}, err
	}

	row := LoadBenchRow{
		Shorts:      loadShorts,
		LongDecodes: longDecodes,
		Interleaved: order.interleaved(),
	}
	row.UnloadedMeanMS, row.UnloadedP95MS = meanAndP95(unloaded)
	row.LoadedMeanMS, row.LoadedP95MS = meanAndP95(loaded)
	if row.UnloadedP95MS > 0 {
		row.LatencyRatio = row.LoadedP95MS / row.UnloadedP95MS
	}
	return row, nil
}

func meanAndP95(lat []float64) (mean, p95 float64) {
	var sum float64
	for _, l := range lat {
		sum += l
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	return sum / float64(len(lat)), percentile(sorted, 0.95)
}

// percentile reads the p-quantile from sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
