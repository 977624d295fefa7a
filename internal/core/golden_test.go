package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// -update regenerates testdata/golden.json from the current decoder.
// The committed file was captured from the pre-refactor monolithic
// decoding loop; TestGoldenDeterminism therefore pins the refactored
// drafter/verifier pipeline to byte-identical legacy behaviour.
var updateGolden = flag.Bool("update", false, "rewrite golden decode fixtures")

// goldenCase is one decode of the fixed matrix.
type goldenCase struct {
	Scheme string `json:"scheme"`
	Mode   string `json:"mode"`
	// Strategy names a registry strategy for the post-legacy cases
	// (tree drafting); empty for the legacy-mode block, whose cases
	// must stay byte-for-byte as captured pre-refactor.
	Strategy string  `json:"strategy,omitempty"`
	Prompt   int     `json:"prompt"` // index into trainExamples
	Temp     float64 `json:"temp"`
	Seed     int64   `json:"seed"`

	// Captured result. Tokens is the raw sequence (specials included):
	// byte-identical output implies identical Tokens, Steps and
	// truncation accounting.
	Tokens    []int   `json:"tokens"`
	Steps     int     `json:"steps"`
	Truncated int     `json:"truncated"`
	SimMS     float64 `json:"sim_ms"`
	Text      string  `json:"text"`
}

const goldenPath = "testdata/golden.json"

// goldenMatrix runs the fixed decode matrix: every legacy mode on its
// natural scheme, three prompts, greedy and sampled, two seeds — then
// the tree strategies on the same schemes, appended AFTER the legacy
// block so the legacy cases keep their committed positions (and bytes)
// forever.
func goldenMatrix(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	// One trained model per scheme, shared by the legacy and tree
	// blocks (training dominates the gate's runtime).
	models := map[model.Scheme]*model.Model{}
	decode := func(scheme model.Scheme, modeLabel, strategy string, opts Options) {
		m := models[scheme]
		if m == nil {
			m = trained(t, scheme)
			models[scheme] = m
		}
		d := NewDecoder(m)
		for pi := range trainExamples {
			for _, temp := range []float64{0, 0.8} {
				for _, seed := range []int64{1, 42} {
					opts.Temperature, opts.Seed = temp, seed
					res := d.Generate(trainExamples[pi].Prompt, opts)
					out = append(out, goldenCase{
						Scheme: scheme.String(), Mode: modeLabel, Strategy: strategy,
						Prompt: pi, Temp: temp, Seed: seed,
						Tokens: append([]int{}, res.Tokens...), Steps: res.Steps,
						Truncated: res.TruncatedTokens, SimMS: res.SimulatedMS,
						Text: res.Text,
					})
				}
			}
		}
	}
	for _, scheme := range []model.Scheme{model.SchemeNTP, model.SchemeMedusa, model.SchemeOurs} {
		// Recorded under the "mode" label with an empty strategy field;
		// a scheme's name is also its strategy's display name.
		decode(scheme, scheme.String(), "", Options{Strategy: scheme.String()})
	}
	for _, sc := range []struct {
		scheme   model.Scheme
		strategy string
	}{
		{model.SchemeMedusa, "medusa-tree"},
		{model.SchemeNTP, "lookup-tree"},
		{model.SchemeOurs, "ours-tree"},
	} {
		decode(sc.scheme, "", sc.strategy, Options{Strategy: sc.strategy})
	}
	return out
}

// TestGoldenDeterminism is the refactor gate: all three legacy modes
// must reproduce the committed pre-refactor outputs bit for bit.
func TestGoldenDeterminism(t *testing.T) {
	got := goldenMatrix(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", goldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matrix size %d, golden has %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		label := w.Mode
		if w.Strategy != "" {
			label = w.Strategy
		}
		id := fmt.Sprintf("%s/prompt=%d/temp=%g/seed=%d", label, w.Prompt, w.Temp, w.Seed)
		if g.Text != w.Text {
			t.Errorf("%s: text diverged\n got: %q\nwant: %q", id, g.Text, w.Text)
			continue
		}
		if g.Steps != w.Steps || g.Truncated != w.Truncated {
			t.Errorf("%s: steps=%d truncated=%d, want steps=%d truncated=%d",
				id, g.Steps, g.Truncated, w.Steps, w.Truncated)
		}
		if g.SimMS != w.SimMS {
			t.Errorf("%s: simulated ms %v, want %v", id, g.SimMS, w.SimMS)
		}
		if len(g.Tokens) != len(w.Tokens) {
			t.Errorf("%s: %d tokens, want %d", id, len(g.Tokens), len(w.Tokens))
			continue
		}
		for j := range w.Tokens {
			if g.Tokens[j] != w.Tokens[j] {
				t.Errorf("%s: token %d is %d, want %d", id, j, g.Tokens[j], w.Tokens[j])
				break
			}
		}
	}
}
