package main

import (
	"fmt"
	"time"
)

// conns is the number of HTTP connections the driver loads a daemon
// with. It equals nproc on the box the benchmark was sized on; more
// would only measure the driver competing with the daemon for CPUs.
const conns = 2

// replaySample is how many generations are decoded again, one at a
// time on a fresh daemon, and compared with what arrived under load;
// -smoke settles for fewer.
const (
	replaySample      = 32
	replaySampleSmoke = 8
)

// window is one measured pass of a workload against one daemon.
type window struct {
	Workload  workload
	Outcomes  []outcome
	PhaseWall map[string]time.Duration
	Wall      time.Duration // sum of the phase walls
	// Reference holds the stats of the workload's reference pass, by
	// phase name, when it has one.
	Reference map[string]phaseStats
	SetupS    float64
	RSSPeakMB float64
	// Delta holds /metrics counters after − before the window, After the
	// closing scrape itself (for gauges).
	Delta, After counters
}

// runWindow starts a fresh daemon, warms it, drives the workload and
// scrapes /metrics on both sides of the measured part. The daemon is
// stopped before it returns.
func runWindow(bin string, w workload, traced bool) (*window, error) {
	d, err := startDaemon(bin, w.Replicas, traced)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	sender := newHTTPSender(d.addr, conns)
	defer sender.close()

	// Warm-up: connections established, lazy set-up done, first-use
	// allocations made. Its requests share nothing with the measured ones.
	for _, o := range drive(w.Warmup, conns, false, wallClock{time.Now()}, sender.send) {
		if !o.ok() {
			return nil, fmt.Errorf("warm-up request failed: %s\nvgend stderr: %s", o.Err, d.stderr)
		}
	}
	win := &window{Workload: w, SetupS: d.SetupS, PhaseWall: map[string]time.Duration{}}
	if len(w.Reference) > 0 {
		clk := wallClock{time.Now()}
		ref := &window{Outcomes: drive(w.Reference, conns, false, clk, sender.send)}
		ref.PhaseWall = map[string]time.Duration{w.Reference[0].Phase: clk.Now()}
		if failed, first := failures(ref.Outcomes); failed > 0 {
			return nil, fmt.Errorf("reference pass: %d requests failed; first: %s\nvgend stderr: %s", failed, first, d.stderr)
		}
		win.Reference = statsByPhase(ref)
	}
	before, err := scrapeCounters(d)
	if err != nil {
		return nil, err
	}
	for _, phase := range w.Phases {
		reqs := w.phase(phase)
		clk := wallClock{time.Now()}
		out := drive(reqs, conns, w.OpenLoop, clk, sender.send)
		if err := answered(out, d); err != nil {
			return nil, err
		}
		wall := clk.Now()
		win.PhaseWall[phase] = wall
		win.Wall += wall
		win.Outcomes = append(win.Outcomes, out...)
	}
	win.After, err = scrapeCounters(d)
	if err != nil {
		return nil, err
	}
	win.Delta = win.After.sub(before)
	if win.RSSPeakMB, err = d.peakRSSMB(); err != nil {
		return nil, fmt.Errorf("read peak RSS: %w", err)
	}
	return win, nil
}

// answered turns a request the daemon never answered into the run's
// error, with what the daemon wrote to stderr: a wedged vgend is not a
// measurement.
func answered(outs []outcome, d *daemon) error {
	for i := range outs {
		if outs[i].TimedOut {
			return fmt.Errorf("request %d: no answer within %s: %s\nvgend stderr: %s", i, requestDeadline, outs[i].Err, d.stderr)
		}
	}
	return nil
}

func scrapeCounters(d *daemon) (counters, error) {
	body, err := d.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w\nvgend stderr: %s", err, d.stderr)
	}
	return parseMetrics(body)
}

// genRef names one generation of a window: request index and position
// in its batch.
type genRef struct{ req, item int }

// replayPlan picks sample generations evenly spaced over the window's
// distinct decodes (exact repeats excluded: they are checked against
// their originals instead).
func replayPlan(outs []outcome, sample int) []genRef {
	var all []genRef
	for i := range outs {
		if outs[i].Req.RepeatOf >= 0 || !outs[i].ok() {
			continue
		}
		for k := range outs[i].Gens {
			all = append(all, genRef{i, k})
		}
	}
	if len(all) <= sample {
		return all
	}
	plan := make([]genRef, sample)
	for j := range plan {
		plan[j] = all[j*len(all)/sample]
	}
	return plan
}

// replayRequest rebuilds generation ref as a lone non-streaming request
// with the same (prompt, options, seed) the daemon decoded it under.
func replayRequest(o *outcome, item int) request {
	b := o.Req.Body
	single := genBody{
		Strategy: b.Strategy, Temperature: b.Temperature, MaxNewTokens: b.MaxNewTokens,
		Prompt: b.Prompt, Seed: b.Seed,
	}
	if len(b.Prompts) > 0 {
		single.Prompt = b.Prompts[item]
		single.Seed = b.Seed + int64(item) // the server's batch seeding rule
	}
	return request{Body: single, RepeatOf: -1}
}

// replay decodes the planned generations sequentially on d, a fresh
// daemon, and marks every outcome whose text differs as failed. It
// returns how many generations were compared.
func replay(d *daemon, win *window, sample int) (compared int, err error) {
	sender := newHTTPSender(d.addr, 1)
	defer sender.close()
	clk := wallClock{time.Now()}
	for _, ref := range replayPlan(win.Outcomes, sample) {
		o := &win.Outcomes[ref.req]
		r := replayRequest(o, ref.item)
		got := sender.send(&r, clk)
		if err := answered([]outcome{got}, d); err != nil {
			return compared, fmt.Errorf("replay: %w", err)
		}
		judgeReplay(o, ref.item, got)
		compared++
	}
	return compared, nil
}

// judgeReplay fails o unless got, the sequential decode of its
// generation item, is a real decode with byte-identical text.
func judgeReplay(o *outcome, item int, got outcome) {
	switch {
	case !got.ok():
		o.Err = "replay failed: " + got.Err
	case got.Gens[0].Cached:
		o.Err = "replay was served from the result cache, not decoded"
	case got.Gens[0].Text != o.Gens[item].Text:
		o.Err = fmt.Sprintf("replay mismatch on item %d: sequential decode gave different text", item)
	}
}

// checkRepeats fails every exact-repeat request whose text differs from
// its original's: a cached or deduplicated answer must still be the
// right answer.
func checkRepeats(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if o.Req.RepeatOf < 0 || !o.ok() {
			continue
		}
		orig := &outs[o.Req.RepeatOf]
		if orig.ok() && orig.Gens[0].Text != o.Gens[0].Text {
			o.Err = fmt.Sprintf("repeat of request %d returned different text", o.Req.RepeatOf)
		}
	}
}
