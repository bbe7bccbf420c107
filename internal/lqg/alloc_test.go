package lqg

import (
	"testing"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
)

// The steady-state loop — Controller.Step and Controller.ObserveApplied
// — is required to be allocation-free after construction: the scratch
// workspaces are preallocated and the returned slices are
// workspace-owned. These gates keep that property from regressing.

// shapePlant returns a stable plant of order n with ni inputs and no
// outputs, every entry of B and C nonzero.
func shapePlant(tb testing.TB, n, ni, no int) *lti.StateSpace {
	tb.Helper()
	a, b, c := mat.New(n, n), mat.New(n, ni), mat.New(no, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 0.6-0.3*float64(i)/float64(n))
		if i+1 < n {
			a.Set(i, i+1, 0.1)
			a.Set(i+1, i, 0.05)
		}
		for j := 0; j < ni; j++ {
			b.Set(i, j, 0.1+0.1*float64((i+2*j)%5))
		}
		for j := 0; j < no; j++ {
			c.Set(j, i, 0.2+0.2*float64((3*i+j)%4))
		}
	}
	ss, err := lti.NewStateSpace(a, b, c, nil, 50e-6)
	if err != nil {
		tb.Fatal(err)
	}
	return ss
}

// shapeDesign designs a controller of shape s on shapePlant.
func shapeDesign(tb testing.TB, s kernelShape) *Controller {
	tb.Helper()
	w := Weights{OutputWeights: make([]float64, s.no), InputWeights: make([]float64, s.ni)}
	for i := range w.OutputWeights {
		w.OutputWeights[i] = 100
	}
	for i := range w.InputWeights {
		w.InputWeights[i] = 1 + float64(i)
	}
	c, err := Design(shapePlant(tb, s.n, s.ni, s.no), w, smallNoise(s.n, s.no),
		Options{DeltaU: s.deltaU, Integral: s.integral})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// allocCase is one controller shape the zero-alloc gates step.
type allocCase struct {
	name  string
	shape kernelShape
}

// allocCases is the generic loops on four shapes outside the kernel
// table, then every kernel of the table, named after it.
func allocCases() []allocCase {
	cases := []allocCase{
		{"plain", kernelShape{2, 2, 2, false, false}},
		{"deltaU", kernelShape{2, 2, 2, true, false}},
		{"integral", kernelShape{2, 2, 2, false, true}},
		{"deltaU+integral", kernelShape{3, 2, 2, true, true}},
	}
	for _, s := range kernelTable {
		cases = append(cases, allocCase{s.kernelName(), s})
	}
	return cases
}

// allocController designs shape s, checks the kernel it selected and
// sets a reference; it returns the controller and an output and an
// applied input of the shape's lengths.
func allocController(t *testing.T, s kernelShape) (c *Controller, y, applied []float64) {
	t.Helper()
	c = shapeDesign(t, s)
	want := ""
	if _, ok := kernels[s]; ok {
		want = s.kernelName()
	}
	if c.g.kernel.name != want || (c.g.kernel.step == nil) != (want == "") {
		t.Fatalf("shape %+v selected kernel %q, want %q", s, c.g.kernel.name, want)
	}
	if err := c.SetReference([]float64{1, 0.5}[:s.no]); err != nil {
		t.Fatal(err)
	}
	return c, []float64{0.4, 0.2}[:s.no], []float64{0.1, 0.05, 0.02}[:s.ni]
}

func TestControllerStepZeroAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, y, _ := allocController(t, tc.shape)
			if _, err := c.Step(y); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := c.Step(y); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Controller.Step allocates %v times per call, want 0", allocs)
			}
		})
	}
}

func TestControllerObserveAppliedZeroAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, y, applied := allocController(t, tc.shape)
			if _, err := c.Step(y); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := c.Step(y); err != nil {
					t.Fatal(err)
				}
				if err := c.ObserveApplied(applied); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Step+ObserveApplied allocates %v times per call, want 0", allocs)
			}
		})
	}
}

// TestStepResultValidUntilNextStep documents the ownership contract of
// Controller.Step's return: the slice is workspace-owned and is
// overwritten by the next Step, so callers that retain it must copy.
func TestStepResultValidUntilNextStep(t *testing.T) {
	plant := testPlant(t)
	c := design(t, plant, defaultWeights(), Options{})
	if err := c.SetReference([]float64{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	u1, err := c.Step([]float64{0.4, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	u1Copy := append([]float64(nil), u1...)
	u2, err := c.Step([]float64{-0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if &u1[0] != &u2[0] {
		t.Fatal("Step should reuse its workspace-owned output buffer")
	}
	same := true
	for i := range u1Copy {
		if u2[i] != u1Copy[i] {
			same = false
		}
	}
	if same {
		t.Fatal("second Step on different y produced identical u; workspace not updated?")
	}
}

// TestCloneIndependentWorkspaces guards the parallel runner: a cloned
// controller must not share scratch memory with its source.
func TestCloneIndependentWorkspaces(t *testing.T) {
	plant := testPlant(t)
	c := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: true})
	if err := c.SetReference([]float64{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	d := c.Clone()
	u1, err := c.Step([]float64{0.4, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := d.Step([]float64{0.4, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if &u1[0] == &u2[0] {
		t.Fatal("Clone shares the Step workspace with its source")
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("clone diverged from source on identical input")
		}
	}
}
