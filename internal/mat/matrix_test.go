package mat_test

import (
	"math"
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

func TestNewAndAccessors(t *testing.T) {
	m := mat.New(2, 3)
	if r, c := m.Rows(), m.Cols(); r != 2 || c != 3 {
		t.Fatalf("shape = (%d,%d), want (2,3)", r, c)
	}
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromRowsAndSlice(t *testing.T) {
	m := testkit.FromRows([][]float64{{1, 2}, {3, 4}})
	n := fromSlice(2, 2, []float64{1, 2, 3, 4})
	if !testkit.Equal(m, n) {
		t.Fatalf("FromRows and the row-major slice disagree: %v vs %v", m, n)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	testkit.FromRows([][]float64{{1, 2}, {3}})
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := mat.New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected bounds panic")
				}
			}()
			f()
		}()
	}
}

func TestIdentityDiag(t *testing.T) {
	i3 := mat.Identity(3)
	d := mat.Diag(1, 1, 1)
	if !testkit.Equal(i3, d) {
		t.Fatalf("Identity(3) != Diag(1,1,1)")
	}
	if i3.Trace() != 3 {
		t.Fatalf("Trace(I3) = %v, want 3", i3.Trace())
	}
}

func TestTranspose(t *testing.T) {
	m := testkit.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if r, c := mt.Rows(), mt.Cols(); r != 3 || c != 2 {
		t.Fatalf("T dims = (%d,%d)", r, c)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", mt)
	}
	if !testkit.Equal(mt.T(), m) {
		t.Fatal("double transpose is not identity")
	}
}

func TestAddSubScale(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2}, {3, 4}})
	b := testkit.FromRows([][]float64{{5, 6}, {7, 8}})
	if got := mat.Add(a, b); !testkit.Equal(got, testkit.FromRows([][]float64{{6, 8}, {10, 12}})) {
		t.Fatalf("Add = %v", got)
	}
	if got := mat.Sub(b, a); !testkit.Equal(got, testkit.FromRows([][]float64{{4, 4}, {4, 4}})) {
		t.Fatalf("Sub = %v", got)
	}
	if got := mat.Scale(2, a); !testkit.Equal(got, testkit.FromRows([][]float64{{2, 4}, {6, 8}})) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestMul(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2}, {3, 4}})
	b := testkit.FromRows([][]float64{{5, 6}, {7, 8}})
	want := testkit.FromRows([][]float64{{19, 22}, {43, 50}})
	if got := mat.Mul(a, b); !testkit.ApproxEqual(got, want, 1e-15) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
	if got := mat.Mul(a, mat.Identity(2)); !testkit.ApproxEqual(got, a, 0) {
		t.Fatalf("a*I = %v, want %v", got, a)
	}
}

func TestMulVec(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := mat.MulVecInto(make([]float64, 2), a, []float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVecInto = %v", y)
	}
}

func TestStacking(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2}})
	b := testkit.FromRows([][]float64{{3, 4}})
	v := mat.VStack(a, b)
	if v.Rows() != 2 || v.Cols() != 2 || v.At(1, 0) != 3 {
		t.Fatalf("VStack = %v", v)
	}
}

func TestSliceAndSetSubmatrix(t *testing.T) {
	m := testkit.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want := testkit.FromRows([][]float64{{4, 5}, {7, 8}})
	if !testkit.Equal(s, want) {
		t.Fatalf("Slice = %v, want %v", s, want)
	}
	m.SetSubmatrix(0, 1, testkit.FromRows([][]float64{{10, 11}}))
	if m.At(0, 1) != 10 || m.At(0, 2) != 11 {
		t.Fatalf("SetSubmatrix failed: %v", m)
	}
}

func TestNorms(t *testing.T) {
	m := testkit.FromRows([][]float64{{3, -4}, {0, 0}})
	if got := m.NormFro(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("NormFro = %v, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestRowColOps(t *testing.T) {
	m := testkit.FromRows([][]float64{{1, 2}, {3, 4}})
	if c := m.Col(0); c[0] != 1 || c[1] != 3 {
		t.Fatalf("Col = %v", c)
	}
	m.SetCol(1, []float64{7, 6})
	if m.At(0, 0) != 1 || m.At(0, 1) != 7 || m.At(1, 1) != 6 {
		t.Fatalf("SetCol: %v", m)
	}
}

func TestSymmetrize(t *testing.T) {
	m := testkit.FromRows([][]float64{{1, 4}, {0, 2}})
	s := mat.Symmetrize(m)
	if s.At(0, 1) != 2 || s.At(1, 0) != 2 {
		t.Fatalf("Symmetrize = %v", s)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := mat.VecNorm2([]float64{3, 4}); got != 5 {
		t.Fatalf("VecNorm2 = %v", got)
	}
	if got := mat.VecSubInto(make([]float64, 3), y, x); got[0] != 3 || got[2] != 3 {
		t.Fatalf("VecSubInto = %v", got)
	}
	if got := mat.VecAddInto(make([]float64, 3), x, y); got[1] != 7 {
		t.Fatalf("VecAddInto = %v", got)
	}
}

func randMatrix(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.RawData() {
		m.RawData()[i] = rng.NormFloat64()
	}
	return m
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randMatrix(rng, 4, 3)
		b := randMatrix(rng, 3, 5)
		c := randMatrix(rng, 5, 2)
		left := mat.Mul(mat.Mul(a, b), c)
		right := mat.Mul(a, mat.Mul(b, c))
		if !testkit.ApproxEqual(left, right, 1e-10) {
			t.Fatalf("associativity violated at trial %d", trial)
		}
	}
}

func TestTransposeOfProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a := randMatrix(rng, 4, 3)
		b := randMatrix(rng, 3, 4)
		lhs := mat.Mul(a, b).T()
		rhs := mat.Mul(b.T(), a.T())
		if !testkit.ApproxEqual(lhs, rhs, 1e-12) {
			t.Fatalf("(AB)ᵀ != BᵀAᵀ at trial %d", trial)
		}
	}
}

func TestIsFinite(t *testing.T) {
	m := mat.New(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix should be finite")
	}
	m.Set(0, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN matrix should not be finite")
	}
	m.Set(0, 1, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf matrix should not be finite")
	}
}

func TestStringer(t *testing.T) {
	m := testkit.FromRows([][]float64{{1, 2}, {3, 4}})
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
}
