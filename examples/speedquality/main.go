// Speedquality: the paper's headline comparison in miniature — train
// all three schemes on the same corpus and compare decoding steps,
// simulated speed and output validity on one prompt (Fig. 5 style).
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/internal/verilog"
)

func main() {
	examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 3, Items: 2400})
	var texts []string
	for _, ex := range examples {
		texts = append(texts, model.FormatPrompt(ex.Prompt)+ex.Code)
	}
	cfg := model.CodeLlamaSim()
	tk := tokenizer.Train(texts, cfg.VocabSize)

	prompt := `Create a simple Verilog module named "data_register" that takes a 4-bit input data_in and assigns it to a 4-bit output data_out using a non-blocking assignment on the positive edge of the clock clk.`

	fmt.Printf("%-8s %6s %8s %12s %8s\n", "method", "steps", "tokens", "sim speed", "parses")
	for _, scheme := range []model.Scheme{model.SchemeOurs, model.SchemeMedusa, model.SchemeNTP} {
		m := model.Train(tk, cfg, scheme, examples)
		dec := core.NewDecoder(m)
		// Each scheme decodes with the strategy of the same name.
		res := dec.Generate(prompt, core.Options{Strategy: scheme.String()})
		fmt.Printf("%-8v %6d %8d %9.1f t/s %8v\n",
			scheme, res.Steps, len(res.CleanTokens), res.TokensPerSecond(),
			verilog.Check(res.Text) == nil)
	}
}
