package lqg

import (
	"testing"

	"mimoctl/internal/lti"
	"mimoctl/internal/testkit"
)

// The steady-state loop — Controller.Step and Controller.ObserveApplied
// — is required to be allocation-free after construction: the scratch
// workspaces are preallocated and the returned slices are
// workspace-owned. These gates keep that property from regressing.

// fleetPlant returns a stable order-4 plant with two inputs and two
// outputs: with ΔU and integral action its controller steps through
// the unrolled fleet kernel.
func fleetPlant(t *testing.T) *lti.StateSpace {
	t.Helper()
	a := testkit.FromRows([][]float64{
		{0.6, 0.1, 0, 0}, {0.05, 0.5, 0.1, 0}, {0, 0.1, 0.4, 0.05}, {0, 0, 0.1, 0.3}})
	b := testkit.FromRows([][]float64{{0.5, 0.2}, {0.1, 0.4}, {0.2, 0.1}, {0.1, 0.3}})
	c := testkit.FromRows([][]float64{{1, 0, 0.5, 0}, {0, 1, 0, 0.5}})
	ss, err := lti.NewStateSpace(a, b, c, nil, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestControllerStepZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		fleet bool
	}{
		{"plain", Options{}, false},
		{"deltaU", Options{DeltaU: true}, false},
		{"integral", Options{Integral: true}, false},
		{"deltaU+integral", Options{DeltaU: true, Integral: true}, false},
		{"fleet-kernel", Options{DeltaU: true, Integral: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plant := testPlant(t)
			if tc.fleet {
				plant = fleetPlant(t)
			}
			c := design(t, plant, defaultWeights(), tc.opts)
			if c.g.fleet != tc.fleet {
				t.Fatalf("fleet kernel selected = %v, want %v", c.g.fleet, tc.fleet)
			}
			if err := c.SetReference([]float64{1, 0.5}); err != nil {
				t.Fatal(err)
			}
			y := []float64{0.4, 0.2}
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
	for _, plant := range []*lti.StateSpace{testPlant(t), fleetPlant(t)} {
		c := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: true})
		if err := c.SetReference([]float64{1, 0.5}); err != nil {
			t.Fatal(err)
		}
		y := []float64{0.4, 0.2}
		applied := []float64{0.1, 0.05}
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
			t.Fatalf("Step+ObserveApplied (order %d) allocates %v times per call, want 0", plant.Order(), allocs)
		}
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
