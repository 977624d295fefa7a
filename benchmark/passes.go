package main

import (
	"context"
	"fmt"
	"os"
)

// runner holds what every pass of an invocation shares.
type runner struct {
	ctx     context.Context
	bin     string // the built vgend
	seed    int64
	seconds float64
	record  bool
	smoke   bool
}

// sliceShare is the part of -seconds the per-layer pass sizes each of
// its two windows for: short enough that an untraced window, a traced
// one and the probes fit in one run, long enough to fill every phase.
const sliceShare = 0.4

func failures(outs []outcome) (failed int, first string) {
	for i := range outs {
		if !outs[i].ok() {
			if failed == 0 {
				first = fmt.Sprintf("request %d (%s): %s", i, outs[i].Req.Phase, outs[i].Err)
			}
			failed++
		}
	}
	return failed, first
}

func printPhases(win *window) {
	pc := countPhases(win)
	fmt.Printf("\n== %s: requests per phase ==\n", win.Workload.Name)
	for _, phase := range win.Workload.Phases {
		c := pc[phase]
		fmt.Printf("%-24s attempted %6d  succeeded %6d  failed %6d  wall %8.3f s\n",
			phase, c.attempted, c.succeeded, c.failed, win.PhaseWall[phase].Seconds())
	}
}

// endToEndPass measures the user-visible metrics of one workload: a
// window against an untraced daemon, then every correctness check.
func (r runner) endToEndPass(name string) (passResult, error) {
	w, err := newWorkload(name, r.seed, r.seconds)
	if err != nil {
		return passResult{}, err
	}
	w.Reference = nil // speedups are the per-layer pass's business
	win, err := runWindow(r.bin, w, false)
	if err != nil {
		return passResult{}, err
	}

	if r.record {
		if err := recordDigests(win, r.seconds); err != nil {
			return passResult{}, err
		}
		fmt.Printf("recorded %s\n", expectedPath(name))
	}
	digestNote := ""
	if file, err := os.ReadFile(expectedPath(name)); err != nil {
		digestNote = "skipped: " + err.Error()
	} else if compared, err := checkDigests(win, file, r.seconds); err != nil {
		return passResult{}, err
	} else {
		digestNote = fmt.Sprintf("%d distinct responses checked", compared)
	}
	checkRepeats(win.Outcomes)

	// The replay needs a daemon that has never seen the window's
	// requests; starting it is also the run's second setup_s sample.
	fresh, err := startDaemon(r.bin, w.Replicas, false)
	if err != nil {
		return passResult{}, fmt.Errorf("replay daemon: %w", err)
	}
	defer fresh.stop()
	sample := replaySample
	if r.smoke {
		sample = replaySampleSmoke
	}
	compared, err := replay(fresh, win, sample)
	if err != nil {
		return passResult{}, err
	}
	setups := []float64{win.SetupS, fresh.SetupS}

	e2e := endToEnd(win, setups)
	printPhases(win)
	fmt.Printf("digests: %s; replay: %d generations decoded again sequentially; setup_s samples: %.4f\n",
		digestNote, compared, setups)
	printMetrics(name+": end to end (wall clock, tracing off)", e2e)
	printMetrics(name+": quality (a function of the output bytes, which the digests pin)", qualityLayer(win))
	printMetrics(name+": client detail (gates nothing)", clientLayer(win))
	printMetrics(name+": /metrics deltas over the window (gates nothing)", serverLayer(win, statsByPhase(win)["ntp"]))
	failed, first := failures(win.Outcomes)
	if failed > 0 {
		fmt.Printf("FAILED operations: %d of %d; first: %s\n", failed, len(win.Outcomes), first)
	}
	return passResult{Attempted: len(win.Outcomes), Failed: failed, Metrics: e2e}, nil
}

// perLayerPass measures where the time goes on a slice of the workload:
// an untraced window for /metrics deltas and client tails, a traced
// window for the span-phase sums, and the in-process probes.
func (r runner) perLayerPass(name string) (passResult, error) {
	w, err := newWorkload(name, r.seed, r.seconds*sliceShare)
	if err != nil {
		return passResult{}, err
	}
	plain, err := runWindow(r.bin, w, false)
	if err != nil {
		return passResult{}, err
	}
	traced, err := runWindow(r.bin, w, true)
	if err != nil {
		return passResult{}, err
	}
	// Tracing must not change a single output byte.
	for i := range traced.Outcomes {
		p, t := &plain.Outcomes[i], &traced.Outcomes[i]
		if p.ok() && t.ok() && digest(p.Gens) != digest(t.Gens) {
			t.Err = "traced daemon returned different text than the untraced one"
		}
	}
	checkRepeats(plain.Outcomes)
	checkRepeats(traced.Outcomes)
	if file, err := os.ReadFile(expectedPath(name)); err == nil {
		if _, err := checkDigests(plain, file, r.seconds*sliceShare); err != nil {
			return passResult{}, err
		}
	}

	ntp := statsByPhase(plain)["ntp"]
	if ref, ok := plain.Reference["ntp"]; ok {
		ntp = ref
	}
	probes := runProbes(r.ctx)
	var m metrics
	m = append(m, clientLayer(plain)...)
	m = append(m, qualityLayer(plain)...)
	m = append(m, serverLayer(plain, ntp)...)
	m = append(m, efficiencyLayer(plain, probes)...)
	m = append(m, traceLayer(plain, traced)...)
	m = append(m, probes...)

	printPhases(plain)
	printMetrics(name+": per layer (slice of the workload; untraced + traced daemon + probes)", m)
	all := append(append([]outcome{}, plain.Outcomes...), traced.Outcomes...)
	failed, first := failures(all)
	if failed > 0 {
		fmt.Printf("FAILED operations: %d of %d; first: %s\n", failed, len(all), first)
	}
	return passResult{Attempted: len(all), Failed: failed, Metrics: m}, nil
}

// qualityLayer scores the window's modules the way the paper does.
func qualityLayer(win *window) metrics {
	syn, fn, n := quality(win.Outcomes)
	var m metrics
	m.higher("quality.syntax_pass_share", "share", syn, fmt.Sprintf("%d generations", n))
	m.higher("quality.func_pass_share", "share", fn, fmt.Sprintf("%d generations", n))
	return m
}

func efficiencyLayer(win *window, probes metrics) metrics {
	var m metrics
	m.higher("serve.sched.parallel_efficiency", "share", parallelEfficiency(win, probes),
		"served tok/s ÷ (workers × the probes' single-thread tok/s), over the phases a probe covers")
	return m
}

// spanKinds maps the tracer's phase names to the per-layer metric that
// reports them, in milliseconds per generation.
var spanKinds = []struct{ kind, metric string }{
	{"request", "serve.request_ms"},
	{"router", "cluster.router_ms"},
	{"attempt", "cluster.attempt_ms"},
	{"admission", "serve.admission_ms"},
	{"queue", "serve.queue_ms"},
	{"decode", "core.decode_ms"},
	{"session_prep", "model.session_prep_ms"},
	{"sweep", "core.sweep_ms"},
	{"draft", "spec.draft_ms"},
	{"verify", "spec.verify_ms"},
	{"park", "serve.park_ms"},
}

// traceLayer decomposes the traced window: each span kind's summed
// duration ÷ generations, the self times where children do not overlap,
// the client latency the request span does not cover, and what tracing
// itself cost against the untraced window on the same requests.
func traceLayer(plain, traced *window) metrics {
	gens, clientMS := 0.0, 0.0
	for i := range traced.Outcomes {
		if o := &traced.Outcomes[i]; o.ok() {
			gens += float64(len(o.Gens))
			clientMS += ms(o.Last - o.Sent)
		}
	}
	per := map[string]float64{}
	var m metrics
	for _, k := range spanKinds {
		per[k.kind] = ratio(traced.Delta["phase."+k.kind]*1000, gens)
		m.lower(k.metric, "ms/gen", per[k.kind], "traced daemon, span sum ÷ generations")
	}
	m.lower("core.decode_wait_ms", "ms/gen", per["decode"]-per["session_prep"]-per["sweep"],
		"decode − session_prep − sweep: resident but outside a sweep")
	m.lower("core.sweep_self_ms", "ms/gen", per["sweep"]-per["draft"]-per["verify"], "sweep − draft − verify")
	// A batch request's decodes overlap, so children are subtracted from
	// the request span only where a request is one generation.
	httpSelf, unattributed := 0.0, 0.0
	if len(traced.Workload.Requests[0].Body.Prompts) == 0 {
		if traced.Workload.Replicas > 1 {
			httpSelf = per["request"] - per["attempt"]
		} else {
			httpSelf = per["request"] - per["queue"] - per["decode"] - per["admission"]
		}
		unattributed = 1 - ratio(per["request"]*gens, clientMS)
	}
	m.lower("serve.http_self_ms", "ms/gen", httpSelf, "request − children; single-prompt workloads only")
	m.lower("trace.unattributed_share", "share", unattributed,
		fmt.Sprintf("of %.1f ms client send→last byte, not covered by the request span; single-prompt workloads only", clientMS))
	m.lower("trace.overhead_share", "share", traceOverhead(plain, traced), overheadBase(plain, traced))
	return m
}

// busyMS is what a window cost: its wall time in a closed loop, the sum
// of request latencies in an open loop (whose wall time is set by the
// arrival schedule, not by the daemon).
func busyMS(w *window) float64 {
	if !w.Workload.OpenLoop {
		return ms(w.Wall)
	}
	t := 0.0
	for i := range w.Outcomes {
		if w.Outcomes[i].ok() {
			t += w.Outcomes[i].latencyMS()
		}
	}
	return t
}

func traceOverhead(plain, traced *window) float64 {
	return 1 - ratio(busyMS(plain), busyMS(traced))
}

func overheadBase(plain, traced *window) string {
	what := "wall time"
	if plain.Workload.OpenLoop {
		what = "summed request latency"
	}
	return fmt.Sprintf("1 − untraced ÷ traced %s on the same requests: %.1f ms ÷ %.1f ms", what, busyMS(plain), busyMS(traced))
}

// parallelEfficiency compares what the daemon served with what its
// workers could do if each decoded at the probes' single-thread rate:
// ideal time Σ tokens ÷ (workers × probe tok/s) over actual wall time,
// across the phases whose strategy a probe covers.
func parallelEfficiency(win *window, probes metrics) float64 {
	workers := win.After["engine.workers"]
	by := statsByPhase(win)
	idealS, wallS := 0.0, 0.0
	for _, phase := range win.Workload.Phases {
		strategy := phase
		if phase == phaseStream || phase == phaseMixed {
			strategy = "ours" // the server default these workloads rely on
		}
		nsPerTok, ok := probes.get("core.decode." + strategy + ".ns_op")
		if !ok || nsPerTok == 0 || workers == 0 {
			continue
		}
		idealS += float64(by[phase].tokens) * nsPerTok / 1e9 / workers
		wallS += by[phase].wallS
	}
	return ratio(idealS, wallS)
}
