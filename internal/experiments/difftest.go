// The differential harness is the quality half of the prefix-cache
// story: "Speculative Decoding: Performance or Illusion?" shows serving
// optimizations earn their speedups only if measured — and trusted —
// honestly, and a session cache is only admissible if it provably
// changes nothing about outputs. RunDiffTest decodes the full strategy
// matrix three times — no session cache, token-prefix trie, and every
// decode of a matrix entry alive at once on one shared trie, stepped
// round-robin in a reshuffled order each round — over a workload built
// to stress every reuse path (shared stems, prefix extensions and
// truncations, exact repeats) and requires byte-identical results per
// (prompt, strategy, seed). The third mode is the continuous
// scheduler's admissibility proof: however the steps of concurrent
// decodes interleave, each decode's bytes must not change. CI runs it
// as a dedicated job next to the golden determinism gate.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/model"
)

// The differential workload, shared by RunDiffTest and RunTreeLossless.
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
	// (each decoded three times, once per mode).
	Cases int
	// PartialHits is the trie's partial-hit count across the run —
	// proof the comparison actually exercised mid-prompt forks rather
	// than trivially re-deriving every session.
	PartialHits uint64
	// Interleaved counts the interleaved mode's steps taken while at
	// least two decodes were live — proof that mode interleaved rather
	// than decoding each state straight through.
	Interleaved uint64
}

// RunDiffTest decodes every StrategyMatrix entry over the workload in
// all three modes and returns an error on the first output divergence.
// Caches persist across the whole workload within one (model, scheme)
// pairing, so later prompts hit sessions forked from earlier ones — the
// trie is compared in its working state, not cold.
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
			off := core.NewDecoder(m)
			cached := core.NewDecoder(m).WithSessionCache(trie)
			shared := core.NewDecoder(m).WithSessionCache(model.NewTrieCache(0))
			var refs []*core.Result
			var states []*core.DecodeState
			var labels []string
			for pi, prompt := range prompts {
				ids := model.CanonicalPromptIDs(m.Tokenizer(), prompt)
				for _, opts := range diffOptions(entry.Strategy, 0) {
					label := fmt.Sprintf("%s/%s: prompt %d (temp=%g seed=%d)",
						mcfg.Name, entry.Strategy, pi, opts.Temperature, opts.Seed)
					ref := off.Generate(prompt, opts)
					report.Cases++
					if err := sameResult(ref, cached.Generate(prompt, opts)); err != nil {
						return report, fmt.Errorf("%s: trie diverged from cache-off: %w", label, err)
					}
					st, err := shared.BeginDecode(context.Background(), ids, opts, nil)
					if err != nil {
						return report, fmt.Errorf("%s: %w", label, err)
					}
					refs, states, labels = append(refs, ref), append(states, st), append(labels, label)
				}
			}
			// Deterministic interleaving, fixed per matrix entry so a
			// failure replays identically.
			report.Interleaved += interleave(states, rand.New(rand.NewSource(42)))
			for i, st := range states {
				res, err := st.Finish()
				if err != nil {
					return report, fmt.Errorf("%s: interleaved decode failed: %w", labels[i], err)
				}
				if err := sameResult(refs[i], res); err != nil {
					return report, fmt.Errorf("%s: interleaved decode diverged from cache-off: %w", labels[i], err)
				}
			}
			report.PartialHits += trie.SessionStats().PartialHits
		}
	}
	if report.PartialHits == 0 {
		return report, fmt.Errorf("differential run never forked a mid-prompt session; the trie went untested")
	}
	if report.Interleaved == 0 {
		return report, fmt.Errorf("differential run never stepped a decode while another was live; interleaving went untested")
	}
	return report, nil
}

// interleave steps every state to completion round-robin, in an order
// rng reshuffles each round — the interleaving the continuous scheduler
// produces — and returns how many steps ran while at least two decodes
// were live.
func interleave(states []*core.DecodeState, rng *rand.Rand) uint64 {
	live := append([]*core.DecodeState(nil), states...)
	var n uint64
	for len(live) > 0 {
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		next := live[:0]
		for _, st := range live {
			if len(live) >= 2 {
				n++
			}
			if !st.Step() {
				next = append(next, st)
			}
		}
		live = next
	}
	return n
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
