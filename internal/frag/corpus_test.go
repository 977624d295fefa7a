package frag_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/frag"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// vgendCorpus is what vgend trains on at its default flags: the corpus
// and CodeLlama-sim's tokenizer.
var vgendCorpus = sync.OnceValues(func() (*tokenizer.Tokenizer, []model.Example) {
	examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 1, Items: 3400})
	return model.TrainTokenizer(model.CodeLlamaSim(), examples), examples
})

// TestCorpusSegmentsAsRegexp holds the lexer's segmentation to the
// regexp segmenter's on every module of vgend's corpus. The two differ
// only inside comments, string literals, directives and escaped
// identifiers, and on literals with an underscore in their size (see
// FuzzSegment); the corpus holds none that moves a piece, so models
// train on the same ids either way.
func TestCorpusSegmentsAsRegexp(t *testing.T) {
	_, examples := vgendCorpus()
	for _, ex := range examples {
		s, err := frag.Analyze(ex.Code)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Pieces()
		want, err := frag.SegmentRegexp(ex.Code)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("segmentations differ on\n%s", ex.Code)
		}
	}
}

// BenchmarkEncodeWithFrags is one [FRAG]-enriched encoding of every
// module of vgend's corpus: the code half of preparing vgend's training
// examples.
func BenchmarkEncodeWithFrags(b *testing.B) {
	tk, examples := vgendCorpus()
	b.ReportAllocs()
	for b.Loop() {
		for _, ex := range examples {
			if _, err := frag.EncodeWithFrags(tk, ex.Code); err != nil {
				b.Fatal(err)
			}
		}
	}
}
