package mat_test

// Run with: go test ./internal/mat/ -run '^$' -bench=mat.SVD -benchmem

import (
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
)

// BenchmarkSVD factors a tall 40x12 matrix, as mat.PInv does for a
// rank-deficient least-squares problem.
func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := mat.New(40, 12)
	for i := 0; i < 40; i++ {
		for j := 0; j < 12; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.FactorSVD(a); err != nil {
			b.Fatal(err)
		}
	}
}
