// The differential harness is the quality half of the prefix-cache
// story: "Speculative Decoding: Performance or Illusion?" shows serving
// optimizations earn their speedups only if measured — and trusted —
// honestly, and a session cache is only admissible if it provably
// changes nothing about outputs. RunDiffTest decodes the full strategy
// matrix three times — no session cache, token-prefix trie, and a
// trie-backed step-wise decode preempted (parked, sometimes dropped,
// resumed) at randomized step boundaries — over a workload built to
// stress every reuse path (shared stems, prefix extensions and
// truncations, exact repeats) and requires byte-identical results per
// (prompt, strategy, seed). The third mode is the continuous
// scheduler's admissibility proof: checkpoint/resume at any sweep
// boundary, with or without the session pages surviving the park, must
// never change bytes. CI runs it as a dedicated job next to the golden
// determinism gate.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
)

// The differential workload, shared by RunDiffTest, RunAdaptDiff and
// RunTreeLossless.
const (
	// diffFamilies × diffVariants size the shared-stem prompt set: later
	// prompts fork the sessions earlier ones of the same stem left
	// behind.
	diffFamilies, diffVariants = 2, 3
	// diffSeed is the sampled decode's seed; a greedy decode of every
	// (prompt, strategy) is always included beside it.
	diffSeed = 7
	// diffMaxNewTokens bounds each decode.
	diffMaxNewTokens = 48
)

// diffOptions is the per-prompt option set of a differential run: one
// greedy decode and one sampled at diffSeed. treeBudget 0 leaves the
// strategy's own budget.
func diffOptions(strategy string, treeBudget int) []core.Options {
	greedy := core.Options{Strategy: strategy, TreeBudget: treeBudget, MaxNewTokens: diffMaxNewTokens}
	sampled := greedy
	sampled.Temperature, sampled.Seed = 0.8, diffSeed
	return []core.Options{greedy, sampled}
}

// SharedStemPrompts builds a workload of prompt families: each family
// shares one long instruction stem (the "Please act as a professional
// Verilog designer..." boilerplate plus a module description) and
// diverges only in a short trailing requirement. This is the
// n-variants-per-task shape of benchmark sweeps and retry traffic —
// the shape the fleet's affinity router deliberately concentrates onto
// one replica, and the one the prefix trie exists to fork.
func SharedStemPrompts(families, variants int) []string {
	stems := []string{
		"Please act as a professional Verilog designer. Create a synchronous FIFO named fifo_unit with clock clk, reset rst, write enable wen and read enable ren",
		"Please act as a professional Verilog designer. Create a module named alu_unit that takes two 8-bit operands a and b and an opcode op",
		"Please act as a professional Verilog designer. Create a finite state machine named fsm_unit with clock clk and an asynchronous active-low reset rst_n",
		"Please act as a professional Verilog designer. Create a parameterizable shift register named shift_unit with clock clk and serial input sin",
		"Please act as a professional Verilog designer. Create a priority encoder named enc_unit over an 8-bit one-hot input req",
		"Please act as a professional Verilog designer. Create an up-down counter named cnt_unit with clock clk, reset rst and direction input dir",
	}
	tails := []string{
		"and a %d-bit data path.",
		"with a depth of %d entries.",
		"raising a flag after %d cycles.",
		"with an output width of %d bits.",
	}
	var out []string
	for f := 0; f < families; f++ {
		stem := stems[f%len(stems)]
		for v := 0; v < variants; v++ {
			out = append(out, fmt.Sprintf("%s %s", stem, fmt.Sprintf(tails[v%len(tails)], 2+v)))
		}
	}
	return out
}

// DiffReport summarizes a clean differential run.
type DiffReport struct {
	// Cases is the number of (prompt, strategy, seed) decodes compared
	// (each decoded three times, once per cache mode).
	Cases int
	// PartialHits is the trie's partial-hit count across the run —
	// proof the comparison actually exercised mid-prompt forks rather
	// than trivially re-deriving every session.
	PartialHits uint64
	// Preemptions counts park/resume interruptions injected into the
	// step-wise decodes (Drops of those additionally discarded the
	// decode's session pages mid-flight) — proof the preemption mode
	// actually checkpointed rather than decoding straight through.
	Preemptions, Drops uint64
}

// diffModes labels the three session-cache configurations under test.
var diffModes = []string{"off", "trie", "preempt"}

// RunDiffTest decodes every StrategyMatrix entry over the workload with
// all three cache modes and returns an error on the first output
// divergence. Caches persist across the whole workload within one
// (model, scheme) pairing, so later prompts hit sessions forked from
// earlier ones — the trie is compared in its working state, not cold.
func (r *Runner) RunDiffTest() (DiffReport, error) {
	prompts := SharedStemPrompts(diffFamilies, diffVariants)
	// Reuse-path stressors: an exact repeat, a prefix truncation and an
	// extension of the first stem prompt.
	prompts = append(prompts,
		prompts[0],
		prompts[0][:len(prompts[0])/2],
		prompts[0]+" Add an active-high enable input en.",
	)
	var report DiffReport
	for _, mcfg := range r.setup.Models {
		for _, entry := range StrategyMatrix {
			m := r.Model(mcfg, entry.Scheme)
			trie := model.NewTrieCache(0)
			decs := map[string]*core.Decoder{
				"off":     core.NewDecoder(m),
				"trie":    core.NewDecoder(m).WithSessionCache(trie),
				"preempt": core.NewDecoder(m).WithSessionCache(model.NewTrieCache(0)),
			}
			// Deterministic preemption schedule, fixed per matrix entry
			// so a failure replays identically.
			rng := rand.New(rand.NewSource(42))
			for pi, prompt := range prompts {
				for _, opts := range diffOptions(entry.Strategy, 0) {
					var ref *core.Result
					for _, mode := range diffModes {
						var res *core.Result
						if mode == "preempt" {
							var err error
							if res, err = preemptedDecode(decs[mode], m, prompt, opts, rng, &report); err != nil {
								return report, fmt.Errorf("%s/%s: preempted decode failed on prompt %d: %w",
									mcfg.Name, entry.Strategy, pi, err)
							}
						} else {
							res = decs[mode].Generate(prompt, opts)
						}
						if mode == "off" {
							ref = res
							report.Cases++
							continue
						}
						if err := sameResult(ref, res); err != nil {
							return report, fmt.Errorf(
								"%s/%s: cache mode %q diverged from cache-off on prompt %d (temp=%g seed=%d): %w",
								mcfg.Name, entry.Strategy, mode, pi, opts.Temperature, opts.Seed, err)
						}
					}
				}
			}
			report.PartialHits += trie.SessionStats().PartialHits
		}
	}
	if report.PartialHits == 0 {
		return report, fmt.Errorf("differential run never forked a mid-prompt session; the trie went untested")
	}
	if report.Preemptions == 0 || report.Drops == 0 {
		return report, fmt.Errorf("differential run injected %d preemptions (%d page drops); the checkpoint/resume path went untested",
			report.Preemptions, report.Drops)
	}
	return report, nil
}

// preemptedDecode runs one decode through the step-wise API, parking it
// at randomized step boundaries the way the continuous scheduler does —
// sometimes additionally dropping its session pages, as happens when a
// parked decode's pinned prefix is released under memory pressure —
// then resuming. The returned Result must be byte-identical to the
// uninterrupted decode; RunDiffTest enforces that against the cache-off
// reference.
func preemptedDecode(dec *core.Decoder, m *model.Model, prompt string, opts core.Options, rng *rand.Rand, report *DiffReport) (*core.Result, error) {
	st, err := dec.BeginDecode(context.Background(), model.CanonicalPromptIDs(m.Tokenizer(), prompt), opts, nil)
	if err != nil {
		return nil, err
	}
	for !st.Step() {
		if rng.Intn(3) != 0 {
			continue
		}
		st.Park()
		report.Preemptions++
		if rng.Intn(2) == 0 {
			st.Drop()
			report.Drops++
		}
		st.Resume()
	}
	return st.Finish()
}

// TreeLosslessReport summarizes a clean lossless run.
type TreeLosslessReport struct {
	// Cases is the number of (model, prompt) greedy decodes compared.
	Cases int
	// StepsNTP/StepsLinear/StepsTree total the forward passes each
	// strategy spent emitting the SAME byte streams — the proof that
	// the tree only changes cost, never content.
	StepsNTP, StepsLinear, StepsTree int
}

// RunTreeLossless is the losslessness half of the tree differential
// gate: greedy decoding through lookup-tree (greedy-exact screening of
// a multi-branch lookup tree) must emit byte streams identical to
// linear prompt-lookup's — and to plain NTP's — on every model. Step
// counts are deliberately NOT compared (fewer steps is the point);
// instead the tree must never spend MORE steps than the linear
// drafter, and the run must show drafting actually engaged (strictly
// fewer steps than NTP overall), or the gate proved nothing.
func (r *Runner) RunTreeLossless() (TreeLosslessReport, error) {
	prompts := SharedStemPrompts(diffFamilies, diffVariants)
	prompts = append(prompts, prompts[0]+" Add an active-high enable input en.")
	var report TreeLosslessReport
	for _, mcfg := range r.setup.Models {
		dec := core.NewDecoder(r.Model(mcfg, model.SchemeNTP))
		for pi, prompt := range prompts {
			ntp := dec.Generate(prompt, core.Options{Strategy: "ntp"})
			lin := dec.Generate(prompt, core.Options{Strategy: "prompt-lookup"})
			tree := dec.Generate(prompt, core.Options{Strategy: "lookup-tree"})
			report.Cases++
			report.StepsNTP += ntp.Steps
			report.StepsLinear += lin.Steps
			report.StepsTree += tree.Steps
			if err := sameBytes(ntp, lin); err != nil {
				return report, fmt.Errorf("%s: prompt-lookup diverged from ntp on prompt %d: %w", mcfg.Name, pi, err)
			}
			if err := sameBytes(ntp, tree); err != nil {
				return report, fmt.Errorf("%s: lookup-tree diverged from ntp on prompt %d: %w", mcfg.Name, pi, err)
			}
			if tree.Steps > lin.Steps {
				return report, fmt.Errorf("%s: lookup-tree spent %d steps on prompt %d, linear prompt-lookup %d",
					mcfg.Name, tree.Steps, pi, lin.Steps)
			}
		}
	}
	if report.StepsTree >= report.StepsNTP {
		return report, fmt.Errorf("lookup-tree spent %d steps to NTP's %d; drafting never engaged, the gate proved nothing",
			report.StepsTree, report.StepsNTP)
	}
	return report, nil
}

// sameBytes compares two decodes on emitted content only — raw tokens
// and text — ignoring step counts and simulated cost, which lossless
// speculative decoding exists to change.
func sameBytes(want, got *core.Result) error {
	if got.Text != want.Text {
		return fmt.Errorf("text diverged\n got: %q\nwant: %q", got.Text, want.Text)
	}
	if len(got.Tokens) != len(want.Tokens) {
		return fmt.Errorf("token count %d, want %d", len(got.Tokens), len(want.Tokens))
	}
	for i := range want.Tokens {
		if got.Tokens[i] != want.Tokens[i] {
			return fmt.Errorf("token %d is %d, want %d", i, got.Tokens[i], want.Tokens[i])
		}
	}
	return nil
}

// sameResult compares two decodes for byte identity — tokens, steps,
// truncation accounting and the simulated cost model must all agree.
func sameResult(want, got *core.Result) error {
	if err := sameBytes(want, got); err != nil {
		return err
	}
	if got.Steps != want.Steps || got.TruncatedTokens != want.TruncatedTokens {
		return fmt.Errorf("steps=%d truncated=%d, want steps=%d truncated=%d",
			got.Steps, got.TruncatedTokens, want.Steps, want.TruncatedTokens)
	}
	if got.SimulatedMS != want.SimulatedMS {
		return fmt.Errorf("simulated ms %v, want %v", got.SimulatedMS, want.SimulatedMS)
	}
	return nil
}
