package mat

// Run with: go test ./internal/mat/ -run '^$' -bench=SVD -benchmem

import (
	"math/rand"
	"testing"
)

// BenchmarkSVD factors a 40x12 matrix, the shape of a subspace
// identification block.
func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := New(40, 12)
	for i := 0; i < 40; i++ {
		for j := 0; j < 12; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorSVD(a); err != nil {
			b.Fatal(err)
		}
	}
}
