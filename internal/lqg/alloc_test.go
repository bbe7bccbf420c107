package lqg

import (
	"testing"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
)

// The steady-state loop — KalmanFilter.Update and Controller.Step — is
// required to be allocation-free after construction: the scratch
// workspaces are preallocated and the returned slices are
// workspace-owned. These gates keep that property from regressing.

func TestKalmanUpdateZeroAllocs(t *testing.T) {
	plant := testPlant(t)
	kf, err := NewKalmanFilter(plant, smallNoise(plant.Order(), plant.Outputs()))
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{0.3, -0.1}
	u := []float64{0.2, 0.1}
	// Warm once so lazy init (none expected) can't skew the measurement.
	if _, err := kf.Update(y, u); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := kf.Update(y, u); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("KalmanFilter.Update allocates %v times per call, want 0", allocs)
	}
}

// fleetPlant returns a stable order-4 plant with two inputs and two
// outputs: with ΔU and integral action its controller steps through
// the unrolled fleet kernel.
func fleetPlant(t *testing.T) *lti.StateSpace {
	t.Helper()
	a := mat.FromRows([][]float64{
		{0.6, 0.1, 0, 0}, {0.05, 0.5, 0.1, 0}, {0, 0.1, 0.4, 0.05}, {0, 0, 0.1, 0.3}})
	b := mat.FromRows([][]float64{{0.5, 0.2}, {0.1, 0.4}, {0.2, 0.1}, {0.1, 0.3}})
	c := mat.FromRows([][]float64{{1, 0, 0.5, 0}, {0, 1, 0, 0.5}})
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

// TestKalmanResetReusesBuffers pins Reset's documented no-allocation
// behaviour: the state buffer is reused in place, not replaced.
func TestKalmanResetReusesBuffers(t *testing.T) {
	plant := testPlant(t)
	kf, err := NewKalmanFilter(plant, smallNoise(plant.Order(), plant.Outputs()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kf.Update([]float64{1, 1}, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	before := &kf.xhat[0]
	if err := kf.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if &kf.xhat[0] != before {
		t.Fatal("Reset(nil) replaced the state buffer instead of reusing it")
	}
	for _, v := range kf.xhat {
		if v != 0 {
			t.Fatal("Reset(nil) did not zero the state")
		}
	}
	if err := kf.Reset([]float64{0.5, -0.5}); err != nil {
		t.Fatal(err)
	}
	if &kf.xhat[0] != before {
		t.Fatal("Reset(x0) replaced the state buffer instead of reusing it")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := kf.Reset(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset allocates %v times per call, want 0", allocs)
	}
}

// TestKalmanPredictedIsRetainable verifies Predicted and
// PredictedOutput return fresh copies the caller may keep: later
// Updates and Resets must not mutate a previously returned slice.
func TestKalmanPredictedIsRetainable(t *testing.T) {
	plant := testPlant(t)
	kf, err := NewKalmanFilter(plant, smallNoise(plant.Order(), plant.Outputs()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kf.Update([]float64{1, 0.5}, []float64{0.2, 0.1}); err != nil {
		t.Fatal(err)
	}
	px := kf.Predicted()
	py := kf.PredictedOutput()
	pxCopy := append([]float64(nil), px...)
	pyCopy := append([]float64(nil), py...)

	// Mutating the returned slices must not write through into the
	// filter state...
	for i := range px {
		px[i] = 1e9
	}
	for i := range py {
		py[i] = 1e9
	}
	if kf.Predicted()[0] == 1e9 {
		t.Fatal("Predicted returned a view into filter state")
	}
	// ...and advancing the filter must not rewrite retained copies.
	for i := range px {
		px[i] = pxCopy[i]
	}
	for i := range py {
		py[i] = pyCopy[i]
	}
	if _, err := kf.Update([]float64{-2, 3}, []float64{1, -1}); err != nil {
		t.Fatal(err)
	}
	if err := kf.Reset(nil); err != nil {
		t.Fatal(err)
	}
	for i := range px {
		if px[i] != pxCopy[i] {
			t.Fatal("retained Predicted slice was mutated by Update/Reset")
		}
		if py[i] != pyCopy[i] {
			t.Fatal("retained PredictedOutput slice was mutated by Update/Reset")
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
