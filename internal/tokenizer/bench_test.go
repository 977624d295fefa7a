package tokenizer_test

import (
	"fmt"
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
