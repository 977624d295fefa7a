// Quickstart: build a small corpus, train a syntax-enriched model and
// generate a Verilog module with speculative decoding.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

func main() {
	// 1. Build a refined corpus (split → dedup → filter → parse-check).
	examples, stats := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 7, Items: 2000})
	fmt.Println("corpus:", stats)

	// 2. Train a BPE tokenizer and the syntax-enriched ("Ours") model.
	var texts []string
	for _, ex := range examples {
		texts = append(texts, model.FormatPrompt(ex.Prompt)+ex.Code)
	}
	cfg := model.CodeLlamaSim()
	tk := tokenizer.Train(texts, cfg.VocabSize)
	m := model.Train(tk, cfg, model.SchemeOurs, examples)

	// 3. Generate with fragment-aligned speculative decoding.
	dec := core.NewDecoder(m)
	res := dec.Generate(
		"Create an 8-bit up-counter named counter_8bit with clock clk and synchronous reset rst. The count value is output on q.",
		core.Options{Strategy: "ours"},
	)
	fmt.Println(res.Text)
	fmt.Printf("decoded in %d steps (%.2f tokens/step), simulated %.0f ms\n",
		res.Steps, res.MeanAccepted(), res.SimulatedMS)
}
