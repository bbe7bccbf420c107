package lqg_test

// BenchmarkLQGDesign times one LQG servo design (both DAREs and the
// gain assembly) for the identified plant of the standard design, with
// the paper's default weights.
//
// Run with: go test ./internal/lqg/ -run '^$' -bench=LQGDesign -benchmem

import (
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/lqg"
)

func BenchmarkLQGDesign(b *testing.B) {
	_, rep, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	model := rep.Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := lqg.Design(model.SS,
			lqg.Weights{
				OutputWeights: []float64{core.DefaultIPSWeight, core.DefaultPowerWeight},
				InputWeights:  []float64{core.DefaultFreqWeight, core.DefaultCacheWeight},
			},
			lqg.Noise{W: model.W, V: model.V},
			lqg.Options{DeltaU: true, Integral: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}
