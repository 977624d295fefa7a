package dataset

import "testing"

// BenchmarkBuildCorpus is one build of the corpus vgend trains on at its
// default flags (seed 1, 3,400 items): the first stage of vgend's
// start-up.
func BenchmarkBuildCorpus(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		BuildCorpus(CorpusOptions{Seed: 1, Items: 3400})
	}
}
