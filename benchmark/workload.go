package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// The four workloads. Their names are the vocabulary BENCHMARK.json,
// the README and later issues cite.
const (
	wlInteractive = "interactive_stream"
	wlLinear      = "offline_linear"
	wlTree        = "offline_tree"
	wlFleet       = "fleet_shared_prefix"
)

var workloadNames = []string{wlInteractive, wlLinear, wlTree, wlFleet}

// The single-phase workloads' phase names; offline phases are named
// after their strategy.
const (
	phaseStream = "stream" // interactive_stream
	phaseMixed  = "mixed"  // fleet_shared_prefix
)

// Work per second of -seconds, sized on the seed commit (2 vCPU) so a
// measured window lasts about -seconds there. The work is a function of
// (-seed, -seconds) only, so two commits run the identical requests.
const (
	interactiveRate   = 8.0 // open-loop arrivals per second (≈40 % of seed capacity)
	linearBatchPerSec = 0.7 // batch requests per phase per second of -seconds
	treeBatchPerSec   = 0.5 // same, tree phases are slower per generation
	fleetReqPerSec    = 300 // single-prompt requests per second of -seconds
	batchSize         = 16  // prompts per offline batch request
	// maxNewTokens caps a generation on the single-engine workloads. The
	// longest clean module of the set has 228 tokens; without a cap about
	// one generation in fifty degenerates into "assign ;" loops until the
	// model's own 2048-token limit — 1900 decoding steps where a normal
	// one takes 15 — and where the seed's order happened to put those few
	// decided a run's numbers. Capped, such a generation still costs five
	// normal ones, so a change that breeds or cures them shows.
	maxNewTokens      = 512
	fleetHotStems     = 24
	fleetMaxNewTokens = 8
	fleetRepeatShare  = 0.60 // exact repeat of an earlier request, seed included; then
	// 30 % known stem + never-seen tail, 10 % never-seen stem
	fleetRepeatWindow = 256 // repeats copy one of this many latest distinct requests
)

var (
	linearPhases = []string{"ntp", "medusa", "ours", "prompt-lookup"}
	treePhases   = []string{"medusa-tree", "lookup-tree", "ours-tree", "grammar-tree", "grammar-lookup-tree"}
)

// genBody is the POST /v1/generate body the driver sends. Only fields
// ROADMAP item 3 keeps are used: never "mode".
type genBody struct {
	Prompt       string   `json:"prompt,omitempty"`
	Prompts      []string `json:"prompts,omitempty"`
	Strategy     string   `json:"strategy,omitempty"`
	Temperature  float64  `json:"temperature,omitempty"`
	MaxNewTokens int      `json:"max_new_tokens,omitempty"`
	Seed         int64    `json:"seed"`
	Stream       bool     `json:"stream,omitempty"`
}

// request is one HTTP request of a workload, fully determined before
// the daemon starts.
type request struct {
	Index int
	// Phase groups requests that run together; offline phases are
	// strategy names and run one after another.
	Phase string
	Body  genBody
	// Due is the open-loop send time relative to the window start;
	// closed-loop requests leave it zero and go as soon as a connection
	// is free.
	Due time.Duration
	// Problems maps each prompt to its index in bench.All(), so quality
	// checks know which testbench applies.
	Problems []int
	// RepeatOf is the index of the earlier request this one repeats
	// byte for byte (fleet workload), or -1.
	RepeatOf int
}

func (r request) encode() []byte {
	b, err := json.Marshal(r.Body)
	if err != nil {
		panic(err) // genBody holds only strings and numbers
	}
	return b
}

// workload is a generated request stream plus how to drive it.
type workload struct {
	Name     string
	OpenLoop bool
	Replicas int // vgend -replicas; 1 is the single-engine path
	Phases   []string
	Requests []request
	Warmup   []request
	// Reference is an ntp pass over the workload's own prompts and seeds
	// for workloads that have no ntp phase: the per-layer pass runs it
	// before the window as the base of the speedups it reports.
	Reference []request
}

func (w workload) phase(name string) []request {
	var out []request
	for _, r := range w.Requests {
		if r.Phase == name {
			out = append(out, r)
		}
	}
	return out
}

// seedSpaceWarmup keeps warm-up sampling seeds apart from measured
// ones so no two requests of a run share (prompt, options, seed) by
// accident: the result LRU and single-flight must never short-circuit a
// measured decode unless the workload asks for it.
const seedSpaceWarmup = int64(1) << 40

func newWorkload(name string, seed int64, seconds float64) (workload, error) {
	if seconds <= 0 {
		return workload{}, fmt.Errorf("seconds must be positive, got %v", seconds)
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(name))))
	switch name {
	case wlInteractive:
		return interactiveWorkload(rng, seconds), nil
	case wlLinear:
		return offlineWorkload(name, linearPhases, linearBatchPerSec, rng, seconds), nil
	case wlTree:
		return offlineWorkload(name, treePhases, treeBatchPerSec, rng, seconds), nil
	case wlFleet:
		return fleetWorkload(rng, seconds), nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// The set of decodes — which prompt, which sampling seed — is the same
// at every --seed: on the single-engine workloads generation g decodes
// bench prompt g mod 46 with sampling seed g, on the fleet workload
// distinct request t is fixed by the catalogue. --seed decides the order
// they are sent in, in the open loop when, and on the fleet workload
// where the repeats fall. Runs at different seeds therefore do
// identical work in different interleavings, the spread between them is
// what the system adds, not what the dice dealt, and the recorded
// digests hold at any seed.

func interactiveWorkload(rng *rand.Rand, seconds float64) workload {
	probs := bench.All()
	n := int(math.Round(interactiveRate * seconds))
	// A Poisson process conditioned on its count: n uniform arrival
	// times over the window. Fixing n keeps the percentile ranks the
	// same at every seed.
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	w := workload{Name: wlInteractive, OpenLoop: true, Replicas: 1, Phases: []string{phaseStream}}
	mk := func(i int, g int64) request {
		p := int(g % int64(len(probs)))
		return request{
			Index: i, Phase: phaseStream, RepeatOf: -1, Problems: []int{p},
			Body: genBody{Prompt: probs[p].Prompt, Temperature: 0.4, MaxNewTokens: maxNewTokens, Seed: g, Stream: true},
		}
	}
	for i, g := range rng.Perm(n) {
		r := mk(i, int64(g))
		r.Due = due[i]
		w.Requests = append(w.Requests, r)
	}
	for i := 0; i < 8; i++ {
		w.Warmup = append(w.Warmup, mk(i, seedSpaceWarmup+int64(i)))
	}
	return w
}

func offlineWorkload(name string, phases []string, batchPerSec float64, rng *rand.Rand, seconds float64) workload {
	probs := bench.All()
	perPhase := max(1, int(math.Round(batchPerSec*seconds)))
	w := workload{Name: name, Replicas: 1, Phases: phases}
	// Batch j of a phase holds generations 16j..16j+15; the server decodes
	// item k with the request's seed + k. Item k takes every third bench
	// prompt from j on, so each batch samples the whole list and all
	// batches cost about the same: with consecutive prompts some batches
	// took twice as long as others, and a phase's wall time depended on
	// whether the seed happened to send a slow one last.
	mk := func(i int, phase string, j int) request {
		r := request{
			Index: i, Phase: phase, RepeatOf: -1,
			Body: genBody{Strategy: phase, Temperature: 0.5, MaxNewTokens: maxNewTokens, Seed: int64(j * batchSize)},
		}
		for k := 0; k < batchSize; k++ {
			p := (j + 3*k) % len(probs)
			r.Problems = append(r.Problems, p)
			r.Body.Prompts = append(r.Body.Prompts, probs[p].Prompt)
		}
		return r
	}
	// Every phase sends the same batches in the same order, so strategies
	// are compared on identical inputs.
	order := rng.Perm(perPhase)
	for _, phase := range phases {
		for _, j := range order {
			w.Requests = append(w.Requests, mk(len(w.Requests), phase, j))
		}
	}
	if phases[0] != "ntp" {
		for i, j := range order {
			w.Reference = append(w.Reference, mk(i, "ntp", j))
		}
	}
	for i, phase := range phases {
		r := mk(i, phase, 0)
		r.Body.Seed = seedSpaceWarmup
		w.Warmup = append(w.Warmup, r)
	}
	return w
}

// fleetCatalogueSeed fixes the fleet workload's catalogue — which bench
// prompts make up stem k, which hot stem original t extends — so that,
// like the other workloads, every --seed decodes the same set.
const fleetCatalogueSeed = 20250

// fleetStem is three bench prompts concatenated: a long shared prefix
// (≈700 characters) the trie can reuse across requests.
func fleetStem(rng *rand.Rand) (string, int) {
	probs := bench.All()
	a, b, c := rng.Intn(len(probs)), rng.Intn(len(probs)), rng.Intn(len(probs))
	return probs[a].Prompt + "\n" + probs[b].Prompt + "\n" + probs[c].Prompt, a
}

func fleetWorkload(rng *rand.Rand, seconds float64) workload {
	n := int(math.Round(fleetReqPerSec * seconds))
	w := workload{Name: wlFleet, Replicas: 2, Phases: []string{phaseMixed}}
	catalogue := rand.New(rand.NewSource(fleetCatalogueSeed))
	type stem struct {
		text string
		prob int
	}
	var stems []stem
	newStem := func() int {
		text, p := fleetStem(catalogue)
		stems = append(stems, stem{text, p})
		return len(stems) - 1
	}
	tails := 0
	mk := func(i int, s int, seed int64) request {
		tails++
		prompt := fmt.Sprintf("%s\nVariant %d: name the module top_v%d.", stems[s].text, tails, tails)
		return request{
			Index: i, Phase: phaseMixed, RepeatOf: -1, Problems: []int{stems[s].prob},
			Body: genBody{Prompt: prompt, MaxNewTokens: fleetMaxNewTokens, Seed: seed},
		}
	}
	// Warm-up uses stems of its own so it teaches the trie nothing about
	// the measured ones.
	for i := 0; i < 16; i++ {
		w.Warmup = append(w.Warmup, mk(i, newStem(), seedSpaceWarmup+int64(i)))
	}
	warmStems := len(stems)

	// The distinct requests are a fixed sequence: original t is a
	// never-seen stem when t is a multiple of four and otherwise a
	// never-seen tail on one of the first fleetHotStems stems — 10 % and
	// 30 % of the traffic. The seed deals where the repeats fall among
	// them and which recent original each one copies.
	var originals []int // indices of the requests that are not repeats
	original := func(i int) request {
		t := len(originals)
		originals = append(originals, i)
		if t%4 == 0 {
			return mk(i, newStem(), int64(t))
		}
		hot := min(len(stems)-warmStems, fleetHotStems)
		return mk(i, warmStems+catalogue.Intn(hot), int64(t))
	}
	// Every ten requests hold exactly six repeats and four originals, so
	// the decodes — the work — are the same at every seed.
	deck := []bool{true, true, true, true, true, true, false, false, false, false} // true: repeat
	for i := 0; i < n; i++ {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			for k := 0; i == 0 && deck[0]; k++ { // the very first request has nothing to repeat
				deck[0], deck[k] = deck[k], deck[0]
			}
		}
		if !deck[i%len(deck)] {
			w.Requests = append(w.Requests, original(i))
			continue
		}
		// A retry storm or an identical sweep: same bytes, same seed, soon
		// after the original.
		recent := originals[max(0, len(originals)-fleetRepeatWindow):]
		r := w.Requests[recent[rng.Intn(len(recent))]]
		r.Index, r.RepeatOf = i, r.Index
		w.Requests = append(w.Requests, r)
	}
	return w
}
