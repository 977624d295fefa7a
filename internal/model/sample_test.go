package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tokenizer"
)

// powSampler is Sample, for one posterior, with every tempered weight
// math.Pow(p, 1/T): the weights are computed once, and each pick walks
// their CDF. TestSampleSquareMatchesPow holds Sample's picks equal to
// the sampler's.
func powSampler(d Dist, temp float64) func(u float64) int {
	w, total := make([]float64, 0, len(d.e)), 0.0
	for _, e := range d.e {
		w = append(w, math.Pow(e.v, 1/temp))
		total += w[len(w)-1]
	}
	return func(u float64) int {
		if total <= 0 {
			return d.Argmax()
		}
		target, acc := u*total, 0.0
		for i, x := range w {
			acc += x
			if target < acc {
				return int(d.e[i].id)
			}
		}
		return int(d.e[len(d.e)-1].id)
	}
}

// sameWeights fails unless Sample at T = 0.5 leaves weights equal bit
// for bit to math.Pow(p, 2) for every p of d's support.
func sameWeights(t *testing.T, d Dist, w *[]float64) {
	t.Helper()
	d.Sample(0.5, 0.5, w)
	for i, e := range d.e {
		if want := math.Pow(e.v, 2); math.Float64bits((*w)[i]) != math.Float64bits(want) {
			t.Fatalf("weight of p = %x: %x, math.Pow gives %x", e.v, (*w)[i], want)
		}
	}
}

// TestSampleSquareMatchesPow: at T = 0.5 Sample squares where
// math.Pow(p, 2) would be called, and must give its bits. The edge
// values are the bounds of the squaring path (the smallest p with a
// normal square, 0x1p-511, and the powers of two below it) and two p
// whose subnormal square p*p rounds differently from math.Pow, which
// rounds the mantissa's square and then the subnormal result; then
// every base posterior of the fixture decodes, under each scheme, whose
// picks over 1,000 values of u must equal a math.Pow sampler's.
func TestSampleSquareMatchesPow(t *testing.T) {
	var w []float64
	edges := []float64{0, 1, 0x1p-511, 0x1p-512, 0x1p-600, 0x1.9e78ba9cbeedp-512, 0x1.4ab2f50862e6fp-514, 0.02, 0.5}
	for i, p := range edges {
		sameWeights(t, Dist{e: []entry{{int32(i), p}}}, &w)
	}
	// Log-uniform p down to e^-40 and across the subnormal squares.
	rng := rand.New(rand.NewSource(1))
	var e []entry
	for i := range 20000 {
		p := math.Exp(-40 * rng.Float64())
		if i%2 == 1 {
			p = math.Ldexp(0.5+rng.Float64()/2, -505-rng.Intn(40))
		}
		e = append(e, entry{int32(i), p})
	}
	sameWeights(t, Dist{e: e}, &w)

	tk := tokenizer.Train(corpusText(), 400)
	posteriors := 0
	for _, scheme := range []Scheme{SchemeNTP, SchemeMedusa, SchemeOurs} {
		gens, seqs := decodeContexts(Train(tk, smallCfg(), scheme, trainExamples))
		for i, seq := range seqs {
			d := baseDist(gens[i], seq)
			sameWeights(t, d, &w)
			ref := powSampler(d, 0.5)
			for range 1000 {
				u := rng.Float64()
				if got, want := d.Sample(0.5, u, &w), ref(u); got != want {
					t.Fatalf("%v, context %d, u = %v: Sample picks %d, the math.Pow sampler %d", scheme, i, u, got, want)
				}
			}
			posteriors++
		}
	}
	t.Logf("%d posteriors, %d picks each", posteriors, 1000)
}
