package lqg

import (
	"flag"
	"fmt"
	"math"
)

// Test-only exports for the external differential tests (package
// lqg_test), which design the paper's controllers through
// internal/core and so cannot live in package lqg.

// Ref is the mat-based reference runtime of reference_test.go.
type Ref = refController

var (
	NewRef       = newRef
	SatThreshold = satThreshold
)

// BitDiff names the first runtime state word in which c and r differ
// by bit pattern, or returns "" when every word matches.
func BitDiff(c *Controller, r *Ref) string {
	for _, v := range []struct {
		name string
		a, b []float64
	}{
		{"xhat", c.xhat, r.xhat},
		{"uPrev", c.uPrev, r.uPrev},
		{"zInt", c.zInt, r.zInt},
		{"lastExcess", c.lastExcess, r.lastExcess},
		{"lastInnov", c.lastInnov, r.lastInnov},
		{"ref", c.ref, r.ref},
		{"xss", c.xss, r.xss},
		{"uss", c.uss, r.uss},
	} {
		if d := SliceBitDiff(v.a, v.b); d != "" {
			return v.name + d
		}
	}
	return ""
}

// SliceBitDiff describes the first index at which a and b differ by bit
// pattern, or returns "" when they are identical.
//
// In an instrumented build two NaNs count as equal whatever their
// payloads. Which NaN an addition of two NaNs returns depends on which
// operand the compiled code puts first, and the race detector's and the
// fuzzer's instrumentation reorder the reference's own additions (mat's
// loops included); no source form of the step can follow that. Every
// other bit is still compared, and in a regular build the payloads too.
func SliceBitDiff(a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf(": length %d != %d", len(a), len(b))
	}
	anyNaN := instrumented()
	for i := range a {
		if anyNaN && math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("[%d]: %v (%#x) != %v (%#x)", i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
	return ""
}

// FilteredBitDiff compares the filtered estimates x̂ᶜ that the last
// Step of c and of r computed. Call it right after a Step: the
// reference keeps x̂ᶜ in its workspace, which its Reset leaves stale.
func FilteredBitDiff(c *Controller, r *Ref) string {
	return SliceBitDiff(c.xc, r.ws.xc)
}

// Kernel names the unrolled kernel Step and ObserveApplied run
// (kernels.go), or returns "generic" for the loops of step.go.
func (c *Controller) Kernel() string {
	if c.g.kernel.step == nil {
		return "generic"
	}
	return c.g.kernel.name
}

// TableShape is one entry of the kernel table and the kernel it selects.
type TableShape struct {
	N, NI, NO        int
	DeltaU, Integral bool
	Kernel           string
}

// KernelTable lists the kernel table.
func KernelTable() []TableShape {
	var out []TableShape
	for _, s := range kernelTable {
		out = append(out, TableShape{s.n, s.ni, s.no, s.deltaU, s.integral, s.kernelName()})
	}
	return out
}

// instrumented reports whether this test binary was built with the race
// detector or runs under coverage-guided fuzzing (go test -fuzz), which
// instruments every package of the build.
func instrumented() bool {
	if raceEnabled {
		return true
	}
	f, w := flag.Lookup("test.fuzz"), flag.Lookup("test.fuzzworker")
	return (f != nil && f.Value.String() != "") || (w != nil && w.Value.String() == "true")
}
