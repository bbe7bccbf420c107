package lti_test

// Micro-benchmarks of the design-time solvers: the DARE behind every
// LQR and Kalman gain, and the H∞ norm the robust-stability check
// sweeps (on the identified plant of the standard design).
//
// Run with: go test ./internal/lti/ -run '^$' -bench=. -benchmem

import (
	"math/rand"
	"testing"

	"mimoctl/internal/experiments"
	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
)

func BenchmarkDARE(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 8
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64()*0.3)
		}
	}
	bm := mat.New(n, 2)
	for i := 0; i < n; i++ {
		bm.Set(i, 0, rng.NormFloat64())
		bm.Set(i, 1, rng.NormFloat64())
	}
	q := mat.Identity(n)
	r := mat.Identity(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lti.SolveDARE(a, bm, q, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHInfNorm(b *testing.B) {
	_, rep, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	plant := rep.Model.SS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plant.HInfNorm(128); err != nil {
			b.Fatal(err)
		}
	}
}
