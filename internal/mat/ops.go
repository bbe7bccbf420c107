package mat

import (
	"fmt"
	"math"
)

func sameShape(op string, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	sameShape("Add", a, b)
	c := New(a.rows, a.cols)
	for i, v := range a.data {
		c.data[i] = v + b.data[i]
	}
	return c
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	sameShape("Sub", a, b)
	c := New(a.rows, a.cols)
	for i, v := range a.data {
		c.data[i] = v - b.data[i]
	}
	return c
}

// Scale returns s * a.
func Scale(s float64, a *Matrix) *Matrix {
	c := New(a.rows, a.cols)
	for i, v := range a.data {
		c.data[i] = s * v
	}
	return c
}

// Mul returns the matrix product a * b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		crow := c.data[i*c.cols : (i+1)*c.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MulChain multiplies matrices left to right: MulChain(a,b,c) = (a*b)*c.
func MulChain(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("mat: MulChain of no matrices")
	}
	p := ms[0]
	for _, m := range ms[1:] {
		p = Mul(p, m)
	}
	return p
}

// VStack concatenates matrices vertically (same column count).
func VStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			panic(fmt.Sprintf("mat: VStack col mismatch %d vs %d", m.cols, cols))
		}
		rows += m.rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		out.SetSubmatrix(off, 0, m)
		off += m.rows
	}
	return out
}

// Symmetrize returns (a + aᵀ)/2, removing numerical asymmetry.
func Symmetrize(a *Matrix) *Matrix {
	if !a.IsSquare() {
		panic("mat: Symmetrize of non-square matrix")
	}
	s := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			s.data[i*a.cols+j] = 0.5 * (a.data[i*a.cols+j] + a.data[j*a.cols+i])
		}
	}
	return s
}

// VecNorm2 returns the Euclidean norm of x.
func VecNorm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
