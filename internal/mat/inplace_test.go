package mat_test

import (
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func randSparseMatrix(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			// Sprinkle exact zeros so mat.Mul's zero-skip path is exercised.
			if rng.Intn(4) == 0 {
				continue
			}
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) != 0 {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func sliceEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %v vs %v (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

// TestIntoBitIdentical asserts each vector Into kernel produces exactly
// the same bits as the allocating form of its operation across random
// shapes and values.
func TestIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][2]int{{1, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 1}, {1, 5}}
	for trial := 0; trial < 20; trial++ {
		for _, sh := range shapes {
			r, c := sh[0], sh[1]
			a := randSparseMatrix(rng, r, c)
			x := randVec(rng, c)
			sliceEqual(t, "MulVecInto", mat.MulVecInto(make([]float64, r), a, x), testkit.MulVec(a, x))

			y := randVec(rng, c)
			sliceEqual(t, "VecSubInto", mat.VecSubInto(make([]float64, c), x, y), testkit.VecSub(x, y))
			sliceEqual(t, "VecAddInto", mat.VecAddInto(make([]float64, c), x, y), testkit.VecAdd(x, y))
		}
	}
}

// TestIntoExactAliasing verifies the documented dst==operand support of
// the elementwise kernels.
func TestIntoExactAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := randVec(rng, 5)
	y := randVec(rng, 5)
	gv := append([]float64(nil), x...)
	mat.VecSubInto(gv, gv, y)
	sliceEqual(t, "VecSubInto dst==x", gv, testkit.VecSub(x, y))
	gv = append([]float64(nil), y...)
	mat.VecAddInto(gv, x, gv)
	sliceEqual(t, "VecAddInto dst==y", gv, testkit.VecAdd(x, y))
}

// TestIntoOverlapPanics verifies that detectable illegal aliasing —
// partial overlap for elementwise kernels, any sharing for the product
// kernels — panics instead of silently corrupting results.
func TestIntoOverlapPanics(t *testing.T) {
	m := mat.New(4, 4)
	other := make([]float64, 4)
	r0 := m.RowView(0)
	r1 := m.RowView(1)
	// Two views of one matrix share its backing array without being the
	// identical slice.
	mustPanic(t, "VecSubInto overlapping views", func() { mat.VecSubInto(r0, r1, other) })
	mustPanic(t, "VecAddInto overlapping views", func() { mat.VecAddInto(r0, other, r1) })

	backing := make([]float64, 10)
	mustPanic(t, "VecSubInto shifted overlap", func() {
		mat.VecSubInto(backing[0:5], backing[2:7], make([]float64, 5))
	})

	// The product kernel rejects even exact aliasing: it reads operands
	// after writing dst.
	sq := mat.New(3, 3)
	v := make([]float64, 3)
	mustPanic(t, "MulVecInto dst==x", func() { mat.MulVecInto(v, mat.New(3, 3), v) })
	mustPanic(t, "MulVecInto dst aliases a", func() { mat.MulVecInto(sq.RowView(0), sq, make([]float64, 3)) })
}

// TestIntoShapePanics checks dimension validation of every Into kernel
// and of the matrix operations.
func TestIntoShapePanics(t *testing.T) {
	a23 := mat.New(2, 3)
	a22 := mat.New(2, 2)
	mustPanic(t, "Add operand shapes", func() { mat.Add(a23, a22) })
	mustPanic(t, "Sub operand shapes", func() { mat.Sub(a23, a22) })
	mustPanic(t, "Mul inner dims", func() { mat.Mul(a23, a23) })
	mustPanic(t, "MulVecInto x len", func() { mat.MulVecInto(make([]float64, 2), a23, make([]float64, 2)) })
	mustPanic(t, "MulVecInto dst len", func() { mat.MulVecInto(make([]float64, 3), a23, make([]float64, 3)) })
	mustPanic(t, "VecSubInto lens", func() { mat.VecSubInto(make([]float64, 2), make([]float64, 3), make([]float64, 3)) })
	mustPanic(t, "VecAddInto lens", func() { mat.VecAddInto(make([]float64, 3), make([]float64, 3), make([]float64, 2)) })
}

// TestRowView checks the view semantics RowView documents: writes show
// through, and out-of-range panics.
func TestRowView(t *testing.T) {
	m := testkit.FromRows([][]float64{{1, 2}, {3, 4}})
	rv := m.RowView(1)
	rv[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("RowView write did not show through")
	}
	sliceEqual(t, "RowView contents", m.RowView(0), []float64{1, 2})
	mustPanic(t, "RowView range", func() { m.RowView(2) })
	mustPanic(t, "RowView negative", func() { m.RowView(-1) })
}
