package core

import (
	"strings"
	"testing"

	"repro/internal/core/spec"
	"repro/internal/model"
)

// TestStrategyListing pins the -list-strategies surface: every
// registered canonical name appears, so the table can never drift from
// what ResolveStrategy accepts.
func TestStrategyListing(t *testing.T) {
	out := StrategyListing()
	for _, name := range spec.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("listing missing strategy %q:\n%s", name, out)
		}
	}
	for _, in := range spec.Registered() {
		if !strings.Contains(out, in.Display) {
			t.Errorf("listing missing display name %q", in.Display)
		}
	}
}

// TestTreeStrategiesDecode smoke-tests every registered tree strategy
// end to end through the decoding loop: decodes complete, the
// node-budget accounting is populated and consistent, and linear
// strategies report no tree work at all.
func TestTreeStrategiesDecode(t *testing.T) {
	schemes := map[string]model.Scheme{
		"medusa-tree":         model.SchemeMedusa,
		"lookup-tree":         model.SchemeNTP,
		"ours-tree":           model.SchemeOurs,
		"grammar-tree":        model.SchemeOurs,
		"grammar-lookup-tree": model.SchemeNTP,
	}
	for strategy, scheme := range schemes {
		m := trained(t, scheme)
		d := NewDecoder(m)
		res := d.Generate(trainExamples[0].Prompt, Options{Strategy: strategy})
		if len(res.CleanTokens) == 0 {
			t.Fatalf("%s: empty decode", strategy)
		}
		if res.TreeBudget != res.Steps*spec.DefaultTreeBudget {
			t.Fatalf("%s: tree budget %d over %d steps, want %d",
				strategy, res.TreeBudget, res.Steps, res.Steps*spec.DefaultTreeBudget)
		}
		if res.TreeNodes <= 0 || res.TreeNodes > res.TreeBudget {
			t.Fatalf("%s: tree nodes %d outside (0, %d]", strategy, res.TreeNodes, res.TreeBudget)
		}
		if u := res.TreeUtilization(); u <= 0 || u > 1 {
			t.Fatalf("%s: utilization %f outside (0, 1]", strategy, u)
		}
		// A tighter budget must be honoured per step.
		tight := d.Generate(trainExamples[0].Prompt, Options{Strategy: strategy, TreeBudget: 3})
		if tight.TreeNodes > 3*tight.Steps {
			t.Fatalf("%s: budget 3 decode proposed %d nodes over %d steps",
				strategy, tight.TreeNodes, tight.Steps)
		}
	}
	// Linear strategies report no tree accounting.
	m := trained(t, model.SchemeOurs)
	res := NewDecoder(m).Generate(trainExamples[0].Prompt, Options{Strategy: "ours"})
	if res.TreeNodes != 0 || res.TreeBudget != 0 || res.TreeUtilization() != 0 {
		t.Fatalf("linear decode reported tree work: nodes=%d budget=%d", res.TreeNodes, res.TreeBudget)
	}
}

// TestLookupTreeGreedyLossless pins the subsystem's quality claim at
// the unit level: greedy decodes through lookup-tree emit the same
// byte stream as linear prompt-lookup and as plain NTP — the tree only
// changes how many forward passes the stream costs. (The experiments
// harness proves the same over the full differential workload.)
func TestLookupTreeGreedyLossless(t *testing.T) {
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m)
	for pi, ex := range trainExamples {
		ntp := d.Generate(ex.Prompt, Options{Strategy: "ntp"})
		pl := d.Generate(ex.Prompt, Options{Strategy: "prompt-lookup"})
		lt := d.Generate(ex.Prompt, Options{Strategy: "lookup-tree"})
		if lt.Text != ntp.Text || pl.Text != ntp.Text {
			t.Fatalf("prompt %d: greedy byte streams diverged\n  ntp: %q\n   pl: %q\n   lt: %q",
				pi, ntp.Text, pl.Text, lt.Text)
		}
		if len(lt.Tokens) != len(ntp.Tokens) {
			t.Fatalf("prompt %d: lookup-tree emitted %d raw tokens, ntp %d",
				pi, len(lt.Tokens), len(ntp.Tokens))
		}
		for i := range ntp.Tokens {
			if lt.Tokens[i] != ntp.Tokens[i] {
				t.Fatalf("prompt %d: raw token %d is %d, want %d", pi, i, lt.Tokens[i], ntp.Tokens[i])
			}
		}
		if lt.Steps > pl.Steps {
			t.Fatalf("prompt %d: lookup-tree took %d steps, linear lookup %d — the tree may never cost steps",
				pi, lt.Steps, pl.Steps)
		}
	}
}

// TestGrammarLookupTreeGreedyLossless extends the losslessness pin to
// the grammar hybrid: oracle pruning and construct chains change what
// gets drafted, never what greedy-exact screening emits — the byte
// stream stays identical to NTP's.
func TestGrammarLookupTreeGreedyLossless(t *testing.T) {
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m)
	for pi, ex := range trainExamples {
		ntp := d.Generate(ex.Prompt, Options{Strategy: "ntp"})
		gl := d.Generate(ex.Prompt, Options{Strategy: "grammar-lookup-tree"})
		if gl.Text != ntp.Text {
			t.Fatalf("prompt %d: greedy byte streams diverged\n  ntp: %q\n  glt: %q", pi, ntp.Text, gl.Text)
		}
		if len(gl.Tokens) != len(ntp.Tokens) {
			t.Fatalf("prompt %d: grammar-lookup-tree emitted %d raw tokens, ntp %d",
				pi, len(gl.Tokens), len(ntp.Tokens))
		}
	}
}

// TestGrammarDecodeStatsAndDeterminism pins the grammar accounting and
// the property the differential gate relies on: the oracle is a pure
// function of the decoded text, so repeated decodes are byte-identical
// and report identical stats; non-grammar strategies report none.
func TestGrammarDecodeStatsAndDeterminism(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	a := d.Generate(trainExamples[0].Prompt, Options{Strategy: "grammar-tree"})
	b := d.Generate(trainExamples[0].Prompt, Options{Strategy: "grammar-tree"})
	if a.Text != b.Text {
		t.Fatalf("grammar-tree decode not deterministic:\n a: %q\n b: %q", a.Text, b.Text)
	}
	if a.GrammarPruned != b.GrammarPruned || a.GrammarDraftTokens != b.GrammarDraftTokens {
		t.Fatalf("grammar stats not deterministic: (%d,%d) vs (%d,%d)",
			a.GrammarPruned, a.GrammarDraftTokens, b.GrammarPruned, b.GrammarDraftTokens)
	}
	if a.GrammarPruned < 0 || a.GrammarDraftTokens < 0 {
		t.Fatalf("negative grammar stats: pruned=%d constructs=%d", a.GrammarPruned, a.GrammarDraftTokens)
	}
	t.Logf("grammar-tree: pruned=%d construct-tokens=%d over %d steps",
		a.GrammarPruned, a.GrammarDraftTokens, a.Steps)
	ours := d.Generate(trainExamples[0].Prompt, Options{Strategy: "ours-tree"})
	if ours.GrammarPruned != 0 || ours.GrammarDraftTokens != 0 {
		t.Fatalf("ours-tree reported grammar stats: pruned=%d constructs=%d",
			ours.GrammarPruned, ours.GrammarDraftTokens)
	}
}

// TestGrammarAcceptsAtLeastOursTree pins the headline mechanism at the
// unit level: grammar constraint (pruning + deeper lookup + construct
// chains) must not lower mean accepted length versus the plain hybrid
// tree on the shared fixtures. (The strict improvement on the bench
// corpus is pinned by experiments.TestGrammarBench.)
func TestGrammarAcceptsAtLeastOursTree(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	var oursSteps, oursTokens, gSteps, gTokens int
	for _, ex := range trainExamples {
		ours := d.Generate(ex.Prompt, Options{Strategy: "ours-tree"})
		g := d.Generate(ex.Prompt, Options{Strategy: "grammar-tree"})
		oursSteps += ours.Steps
		oursTokens += len(ours.Tokens)
		gSteps += g.Steps
		gTokens += len(g.Tokens)
	}
	oursMean := float64(oursTokens) / float64(oursSteps)
	gMean := float64(gTokens) / float64(gSteps)
	if gMean < oursMean {
		t.Fatalf("grammar-tree mean accepted %.3f below ours-tree %.3f", gMean, oursMean)
	}
	t.Logf("mean accepted: ours-tree %.3f, grammar-tree %.3f", oursMean, gMean)
}

// TestTreeAcceptsAtLeastLinear pins the mechanism at the unit level:
// over the shared fixtures, tree-structured Medusa drafting accepts at
// least as many tokens per step as linear Medusa with the same heads,
// verifier and seeds — the deepest accepted root path can never be
// shorter than the greedy chain when the tree contains it, and extra
// branches only add opportunities. (The strict improvement on the eval
// suite is pinned by experiments.TestTreeBench.)
func TestTreeAcceptsAtLeastLinear(t *testing.T) {
	m := trained(t, model.SchemeMedusa)
	d := NewDecoder(m)
	var linSteps, linTokens, treeSteps, treeTokens int
	for _, ex := range trainExamples {
		lin := d.Generate(ex.Prompt, Options{Strategy: "medusa"})
		tr := d.Generate(ex.Prompt, Options{Strategy: "medusa-tree"})
		linSteps += lin.Steps
		linTokens += len(lin.Tokens)
		treeSteps += tr.Steps
		treeTokens += len(tr.Tokens)
	}
	linMean := float64(linTokens) / float64(linSteps)
	treeMean := float64(treeTokens) / float64(treeSteps)
	if treeMean < linMean {
		t.Fatalf("medusa-tree mean accepted %.3f below linear %.3f", treeMean, linMean)
	}
	t.Logf("mean accepted: linear %.3f, tree %.3f", linMean, treeMean)
}
