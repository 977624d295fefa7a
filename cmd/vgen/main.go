// Command vgen trains the simulated models on a synthetic corpus and
// generates Verilog for a prompt with the chosen scheme and decoding
// strategy — the quickest way to watch the speculative decoder work.
//
// Usage: vgen [-scheme ours|medusa|ntp] [-strategy NAME] [-tree-budget N]
// [-items N] [-temp T] "prompt"
//
// Without -strategy the model decodes with the method it was trained
// for (its scheme); -strategy overrides that with any registered
// strategy (vgen -list-strategies prints them all); e.g.
// "-scheme ntp -strategy prompt-lookup" accelerates the plain NTP
// backbone with self-speculative drafting, and "-strategy medusa-tree"
// drafts a branching candidate tree per step (-tree-budget caps its
// nodes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
)

func main() {
	schemeName := flag.String("scheme", "ours", "training scheme: ours, medusa or ntp")
	strategy := flag.String("strategy", "", "decoding strategy by registry name (empty: the serving model's own method; see -list-strategies)")
	treeBudget := flag.Int("tree-budget", 0, "draft-tree node budget per step for tree strategies (0 = default)")
	items := flag.Int("items", 3400, "corpus items")
	temp := flag.Float64("temp", 0, "sampling temperature (0 = greedy)")
	seed := flag.Int64("seed", 1, "seed")
	listStrategies := flag.Bool("list-strategies", false, "print the registered decoding strategies and exit")
	flag.Parse()
	if *listStrategies {
		fmt.Print(core.StrategyListing())
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, `usage: vgen [-scheme ours] "Create an 8-bit counter named counter_8bit ..."`)
		os.Exit(2)
	}
	prompt := strings.Join(flag.Args(), " ")
	if *strategy != "" {
		if _, err := core.ResolveStrategy(*strategy); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}

	scheme, err := model.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "# building corpus (%d items) and training %v model...\n", *items, scheme)
	examples, stats := dataset.BuildCorpus(dataset.CorpusOptions{Seed: *seed, Items: *items})
	fmt.Fprintf(os.Stderr, "# %s\n", stats)
	cfg := model.CodeLlamaSim()
	m := model.Train(model.TrainTokenizer(cfg, examples), cfg, scheme, examples)

	dec := core.NewDecoder(m)
	res := dec.Generate(prompt, core.Options{
		Strategy:    *strategy,
		Temperature: *temp,
		TreeBudget:  *treeBudget,
		Seed:        *seed,
	})
	fmt.Print(res.Text)
	if !strings.HasSuffix(res.Text, "\n") {
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "# steps=%d tokens=%d mean-accepted=%.2f simulated=%.0fms (%.1f tok/s)\n",
		res.Steps, len(res.CleanTokens), res.MeanAccepted(), res.SimulatedMS, res.TokensPerSecond())
	if res.TreeNodes > 0 {
		fmt.Fprintf(os.Stderr, "# tree: %d draft nodes proposed, %.0f%% of the node budget\n",
			res.TreeNodes, 100*res.TreeUtilization())
	}
}
