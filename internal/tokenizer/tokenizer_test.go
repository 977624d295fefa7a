package tokenizer

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

var sampleCorpus = []string{
	"module data_register (\n    input clk,\n    input [3:0] data_in,\n    output reg [3:0] data_out\n);\n    always @(posedge clk) begin\n        data_out <= data_in;\n    end\nendmodule\n",
	"module counter(input clk, rst, output reg [7:0] q);\n  always @(posedge clk) if (rst) q <= 0; else q <= q + 1;\nendmodule\n",
	"module mux2to1(input a, b, sel, output y);\n  assign y = sel ? b : a;\nendmodule\n",
}

func TestTrainGrowsVocab(t *testing.T) {
	tk := Train(sampleCorpus, 400)
	if tk.VocabSize() <= NumSpecial+256 {
		t.Fatalf("vocab did not grow: %d", tk.VocabSize())
	}
	if tk.VocabSize() > 400 {
		t.Fatalf("vocab exceeded target: %d", tk.VocabSize())
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	tk := Train(sampleCorpus, 350)
	for _, doc := range sampleCorpus {
		ids := tk.Encode(doc)
		if got := tk.Decode(ids); got != doc {
			t.Fatalf("roundtrip mismatch:\n got %q\nwant %q", got, doc)
		}
	}
}

func TestRoundtripProperty(t *testing.T) {
	tk := Train(sampleCorpus, 320)
	f := func(s string) bool {
		// Byte-level fallback guarantees lossless roundtrip for any
		// byte string.
		return tk.Decode(tk.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingDeterminism(t *testing.T) {
	a := Train(sampleCorpus, 350)
	b := Train(sampleCorpus, 350)
	if a.VocabSize() != b.VocabSize() {
		t.Fatalf("sizes differ: %d vs %d", a.VocabSize(), b.VocabSize())
	}
	doc := sampleCorpus[0]
	if !reflect.DeepEqual(a.Encode(doc), b.Encode(doc)) {
		t.Fatal("two identical trainings tokenize differently")
	}
}

func TestMergesCompress(t *testing.T) {
	small := Train(sampleCorpus, NumSpecial+256) // bytes only
	big := Train(sampleCorpus, 500)
	doc := sampleCorpus[0]
	if len(big.Encode(doc)) >= len(small.Encode(doc)) {
		t.Fatalf("merges should compress: %d vs %d tokens",
			len(big.Encode(doc)), len(small.Encode(doc)))
	}
}

func TestSpecialTokens(t *testing.T) {
	tk := Train(sampleCorpus, 300)
	if !IsSpecial(FragID) || !IsSpecial(EosID) || IsSpecial(NumSpecial) {
		t.Fatal("IsSpecial misclassifies")
	}
	if tk.Token(FragID) != "[FRAG]" || tk.Token(PadID) != "[PAD]" || tk.Token(IgnoreID) != "[IGNORE]" {
		t.Fatalf("special names wrong: %q %q %q", tk.Token(FragID), tk.Token(PadID), tk.Token(IgnoreID))
	}
	ids := []int{FragID}
	ids = append(ids, tk.Encode("module")...)
	ids = append(ids, FragID)
	if got := tk.Decode(ids); got != "[FRAG]module[FRAG]" {
		t.Fatalf("Decode = %q", got)
	}
	if got := tk.DecodeClean(ids); got != "module" {
		t.Fatalf("DecodeClean = %q", got)
	}
}

func TestPretokenize(t *testing.T) {
	got := pretokenize("assign y_out = a1 + 3'b101;")
	want := []string{"assign", " ", "y_out", " ", "=", " ", "a1", " ", "+", " ", "3", "'", "b101", ";"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pretokenize = %q, want %q", got, want)
	}
}

func TestPretokenizeNoCrossBoundaryMerges(t *testing.T) {
	// Train heavily on "ab" pairs split by space; the merge must never
	// produce a token containing the space boundary.
	corpus := []string{strings.Repeat("ab ab ", 50)}
	tk := Train(corpus, NumSpecial+256+10)
	for _, p := range tk.pieces[256:] {
		if strings.ContainsAny(p, " ") && len(p) > 1 && p != "  " && !allSame(p) {
			t.Fatalf("merge crossed word boundary: %q", p)
		}
	}
}

func allSame(s string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] != s[0] {
			return false
		}
	}
	return true
}

func TestVerilogIdentifierStaysWhole(t *testing.T) {
	// Common identifiers in a large corpus should become single tokens.
	corpus := make([]string, 0, 60)
	for i := 0; i < 60; i++ {
		corpus = append(corpus, "input clk, output reg data_out; always @(posedge clk) data_out <= 1;\n")
	}
	tk := Train(corpus, 600)
	ids := tk.Encode("posedge")
	if len(ids) != 1 {
		t.Fatalf("'posedge' encodes to %d tokens (%v), want 1", len(ids), ids)
	}
}

// referenceEncode is the encoder Encode replaced, kept as its test
// oracle: per word, rescan every adjacent pair, apply the earliest-
// learned merge present (leftmost on a tie), repeat until none applies.
// It is quadratic in word length.
func referenceEncode(t *Tokenizer, text string) []int {
	var out []int
	for _, word := range pretokenize(text) {
		ids := make([]int, 0, len(word))
		for i := 0; i < len(word); i++ {
			ids = append(ids, NumSpecial+int(word[i]))
		}
		for len(ids) >= 2 {
			best, bestAt := -1, -1
			for i := 0; i+1 < len(ids); i++ {
				if id, ok := t.ranks[[2]int{ids[i], ids[i+1]}]; ok {
					if best == -1 || id < best {
						best, bestAt = id, i
					}
				}
			}
			if best == -1 {
				break
			}
			ids[bestAt] = best
			ids = append(ids[:bestAt+1], ids[bestAt+2:]...)
		}
		out = append(out, ids...)
	}
	return out
}

// FuzzEncode holds Encode to the reference loop id for id and to a
// lossless round trip, over the committed seeds (testdata/fuzz/), the
// training words added below, and whatever the fuzzer derives from
// them.
func FuzzEncode(f *testing.F) {
	tk := Train(append(sampleCorpus, strings.Repeat("reg regreg data_in ", 8)), 400)
	// Training words: Encode takes their ids from the word table.
	f.Add("regreg")
	f.Add("reg regreg\tdata_in;")
	f.Fuzz(func(t *testing.T, s string) {
		got := tk.Encode(s)
		if want := referenceEncode(tk, s); !slices.Equal(got, want) {
			t.Fatalf("Encode(%q) = %v, reference %v", s, got, want)
		}
		if back := tk.Decode(got); back != s {
			t.Fatalf("Decode(Encode(%q)) = %q", s, back)
		}
	})
}

// TestEncodeLongWord encodes one 256 KiB identifier. The reference loop
// rescans the word once per merge, which at this length runs past go
// test's default timeout; Encode must finish, round-trip and merge.
func TestEncodeLongWord(t *testing.T) {
	tk := Train(sampleCorpus, 400)
	word := strings.Repeat("data_out", 32<<10)
	ids := tk.Encode(word)
	if got := tk.Decode(ids); got != word {
		t.Fatal("long word did not round-trip")
	}
	if len(ids) >= len(word)/2 {
		t.Fatalf("long word encoded to %d ids for %d bytes: merges did not apply", len(ids), len(word))
	}
}
