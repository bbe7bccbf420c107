package mat

import "fmt"

// This file holds the destination-passing ("Into") variants of the hot
// arithmetic kernels. They exist so steady-state control loops can run
// without allocating: the caller owns dst and reuses it every step.
//
// Aliasing contract
//
// Two slices "share storage" when they are backed by the same array,
// even at different offsets. Every function below documents which of
// the three cases it supports:
//
//   - no aliasing: dst must not share storage with any operand;
//   - exact aliasing: dst may be the very same slice (same base
//     pointer and length) as an operand, but must not otherwise
//     overlap it;
//   - any aliasing: dst may overlap operands arbitrarily.
//
// Violations are detected (without unsafe) whenever the slices expose
// their backing array's tail through cap, and panic. Matrices built by
// this package always own a whole backing array, and RowView
// deliberately leaves the cap un-truncated, so in practice every
// illegal overlap between package-built values is caught.
//
// Every Into kernel performs bit-identical arithmetic to the
// allocating form of its operation (testkit.MulVec, VecSub and VecAdd,
// which the tests hold the kernels against): same loop structure, same
// operation order.

// sharedArray reports whether a and b are backed by the same array. It
// identifies an array by the address of its final element, reachable
// through cap; slices with cap 0 share nothing observable.
func sharedArray(a, b []float64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// exactAlias reports whether a and b are the identical slice: same
// base pointer and same length.
func exactAlias(a, b []float64) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// checkNoAlias panics if dst shares a backing array with v at all.
func checkNoAlias(op string, dst, v []float64) {
	if sharedArray(dst, v) {
		panic("mat: " + op + ": dst must not share storage with an operand")
	}
}

// checkExactAlias panics if dst overlaps v without being the identical
// slice.
func checkExactAlias(op string, dst, v []float64) {
	if sharedArray(dst, v) && !exactAlias(dst, v) {
		panic("mat: " + op + ": dst partially overlaps an operand")
	}
}

// MulVecInto stores the matrix-vector product a*x into dst and returns
// dst. dst must have length a.Rows(). No aliasing: dst must not share
// storage with a's data or with x.
func MulVecInto(dst []float64, a *Matrix, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVecInto dimension mismatch %dx%d * len %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVecInto dst has len %d, want %d", len(dst), a.rows))
	}
	checkNoAlias("MulVecInto", dst, a.data)
	checkNoAlias("MulVecInto", dst, x)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// VecSubInto stores x - y into dst and returns dst. All three must
// share one length. Exact aliasing: dst may be x and/or y.
func VecSubInto(dst, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(fmt.Sprintf("mat: VecSubInto length mismatch dst %d, x %d, y %d", len(dst), len(x), len(y)))
	}
	checkExactAlias("VecSubInto", dst, x)
	checkExactAlias("VecSubInto", dst, y)
	for i := range x {
		dst[i] = x[i] - y[i]
	}
	return dst
}

// VecAddInto stores x + y into dst and returns dst. All three must
// share one length. Exact aliasing: dst may be x and/or y.
func VecAddInto(dst, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(fmt.Sprintf("mat: VecAddInto length mismatch dst %d, x %d, y %d", len(dst), len(x), len(y)))
	}
	checkExactAlias("VecAddInto", dst, x)
	checkExactAlias("VecAddInto", dst, y)
	for i := range x {
		dst[i] = x[i] + y[i]
	}
	return dst
}
