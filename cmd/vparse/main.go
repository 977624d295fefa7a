// Command vparse syntax-checks Verilog files with the project's parser
// (the Stagira substitute) and optionally dumps the significant-token
// set and the [FRAG]-annotated source used by the syntax-enriched
// training scheme.
//
// Usage: vparse [-frags] [-tokens] file.v...
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/frag"
)

func main() {
	showFrags := flag.Bool("frags", false, "print the [FRAG]-annotated source")
	showTokens := flag.Bool("tokens", false, "print the significant-token set")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: vparse [-frags] [-tokens] file.v...")
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
			continue
		}
		// One parse is the syntax check and the significant tokens.
		s, err := frag.Analyze(string(data))
		if err != nil {
			fmt.Printf("%s: FAIL: %v\n", path, err)
			exit = 1
			continue
		}
		fmt.Printf("%s: OK\n", path)
		if *showTokens {
			var toks []string
			for t := range s.Significant() {
				toks = append(toks, t)
			}
			sort.Strings(toks)
			fmt.Printf("  significant tokens (%d): %v\n", len(toks), toks)
		}
		if *showFrags {
			fmt.Println(s.Annotated())
		}
	}
	os.Exit(exit)
}
