package tokenizer_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// vgendExamples builds the corpus vgend trains on at its default flags.
var vgendExamples = sync.OnceValue(func() []model.Example {
	examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 1, Items: 3400})
	return examples
})

// served trains the tokenizer vgend serves at its default flags.
var served = sync.OnceValue(func() *tokenizer.Tokenizer {
	return model.TrainTokenizer(model.CodeLlamaSim(), vgendExamples())
})

// BenchmarkEncode encodes the templated prompt text the engine encodes
// per request: a bench prompt, and a fleet_shared_prefix-shaped one
// (three bench prompts as a shared stem, then a unique tail).
func BenchmarkEncode(b *testing.B) {
	tk := served()
	p := bench.All()
	fleet := fmt.Sprintf("%s\n%s\n%s\nVariant %d: name the module top_v%d.", p[0].Prompt, p[7].Prompt, p[19].Prompt, 1, 1)
	for _, c := range []struct{ name, desc string }{{"bench", p[0].Prompt}, {"fleet", fleet}} {
		text := model.FormatPrompt(c.desc)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var ids []int
			for b.Loop() {
				ids = tk.Encode(text)
			}
			b.ReportMetric(float64(len(ids)), "tokens")
		})
	}
}

// TestWordTableMatchesMerge holds every entry of the word table of
// vgend's tokenizer to the heap merge's encoding of its word, the
// encoding Encode gave every word before the table.
func TestWordTableMatchesMerge(t *testing.T) {
	tk := served()
	table := tokenizer.WordTable(tk)
	if len(table) < 1000 {
		t.Fatalf("word table holds %d words", len(table))
	}
	for w, ids := range table {
		if want := tokenizer.MergeEncode(tk, w); !slices.Equal(ids, want) {
			t.Fatalf("word %q: table %v, merge %v", w, ids, want)
		}
	}
}
