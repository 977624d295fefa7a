// Fragments: the paper's Fig. 3 and Fig. 4 worked examples — extract
// syntactically significant tokens, insert [FRAG] markers, and build
// the syntax-enriched label matrix with the parallel [IGNORE] sweep.
package main

import (
	"fmt"
	"sort"

	"repro/internal/frag"
	"repro/internal/tokenizer"
)

const src = `module data_register (
    input clk,
    input [3:0] data_in,
    output reg [3:0] data_out
);
    always @(posedge clk) begin
        data_out <= data_in;
    end
endmodule
`

func main() {
	// Fig. 3(B): significant tokens = AST keywords + extra keywords,
	// flagged on the tokens the parser lexed.
	s, err := frag.Analyze(src)
	if err != nil {
		panic(err)
	}
	var toks []string
	for t := range s.Significant() {
		if len(t) > 2 { // show the interesting ones
			toks = append(toks, t)
		}
	}
	sort.Strings(toks)
	fmt.Println("significant tokens:", toks)

	// Fig. 3(C): the [FRAG]-annotated source.
	fmt.Println("\n--- [FRAG]-annotated ---")
	fmt.Println(s.Annotated())

	// Fig. 4: the syntax-enriched label matrix.
	tk := tokenizer.Train([]string{src}, 400)
	ids := s.Encode(tk)
	labels := frag.BuildSyntaxEnrichedLabels(ids, 10)
	fr := frag.IgnoredFraction(labels)
	fmt.Println("--- [IGNORE] fraction per head (grows for later heads) ---")
	for i, f := range fr {
		who := "base"
		if i > 0 {
			who = fmt.Sprintf("head %d", i)
		}
		fmt.Printf("  %-7s %.3f\n", who, f)
	}
}
