package tokenizer_test

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

// vgendSample is the text vgend's tokenizer trains on at its default
// flags: FormatPrompt(prompt)+code of the corpus's first 1,500
// examples, as model.TrainTokenizer builds it.
func vgendSample() []string {
	examples := vgendExamples()
	var texts []string
	for _, ex := range examples[:min(len(examples), 1500)] {
		texts = append(texts, model.FormatPrompt(ex.Prompt)+ex.Code)
	}
	return texts
}

// TestTrainMatchesReference holds Train to the rescanning trainer it
// replaced: the same pieces in the same order and the same merge
// ranks, on vgend's tokenizer sample and on small corpora built to
// stress the heap — overlapping pairs, whose merge moves the merged
// pair's own count, and equal counts settled by the merged text, where
// id order and text order disagree.
func TestTrainMatchesReference(t *testing.T) {
	sample := vgendSample()
	cases := []struct {
		name   string
		corpus []string
		vocab  int
	}{
		{"vgend-1024", sample, 1024},
		{"vgend-2048", sample, 2048},
		// (a,a) overlaps itself: aaaa merges to aa aa, aaa to aa a.
		{"overlap-aaaa", []string{"aaaa aaaa aaa aaaaa aaaaaaa"}, tokenizer.NumSpecial + 256 + 8},
		// (a,b) and (b,a) chain through every abab.
		{"overlap-abab", []string{"abab abab ababab bababa aba bab"}, tokenizer.NumSpecial + 256 + 8},
		// zz merges before aa, so aa has the larger id; (aa,q) and
		// (zz,q) then tie at 3, and the text aaq goes first.
		{"tie-text-vs-id", []string{strings.Repeat("zzq aaq zz ", 3) + "zz aa"}, tokenizer.NumSpecial + 256 + 4},
		// Every pair occurs exactly twice: the text alone orders them.
		{"tie-all", []string{"dc ba fe hg dc ba fe hg"}, tokenizer.NumSpecial + 256 + 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := tokenizer.Train(c.corpus, c.vocab), tokenizer.TrainReference(c.corpus, c.vocab)
			gotPieces, gotRanks := tokenizer.Vocab(got)
			wantPieces, wantRanks := tokenizer.Vocab(want)
			if i := firstDiff(gotPieces, wantPieces); i >= 0 {
				t.Fatalf("%d pieces, reference %d; first difference at piece %d", len(gotPieces), len(wantPieces), i)
			}
			if !maps.Equal(gotRanks, wantRanks) {
				t.Fatalf("merge ranks differ from the reference's (%d vs %d)", len(gotRanks), len(wantRanks))
			}
			if len(gotPieces) == 256 {
				t.Fatal("no merge learned: the case tests nothing")
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// BenchmarkTrainTokenizer is one training of the tokenizer vgend
// serves at its default flags (CodeLlama-sim's 2,048-token vocabulary
// on vgend's corpus): a stage of vgend's start-up.
func BenchmarkTrainTokenizer(b *testing.B) {
	examples := vgendExamples()
	b.ReportAllocs()
	for b.Loop() {
		model.TrainTokenizer(model.CodeLlamaSim(), examples)
	}
}
