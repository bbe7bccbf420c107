package lqg_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/lqg"
	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// The lockstep differentials: the controller and the mat-based
// reference (reference_test.go) consume the same stream of outputs,
// applied inputs, reference changes and resets, and every returned
// input and every state word must match by math.Float64bits — NaN
// payloads and signed zeros included.

var paperDesigns = struct {
	sync.Mutex
	ctrl map[bool]*lqg.Controller
}{ctrl: map[bool]*lqg.Controller{}}

// paperDesign returns the LQG controller of the paper's design flow for
// the 2- or 3-input plant (memoized; callers clone it).
func paperDesign(t testing.TB, threeInput bool) *lqg.Controller {
	t.Helper()
	paperDesigns.Lock()
	defer paperDesigns.Unlock()
	if c, ok := paperDesigns.ctrl[threeInput]; ok {
		return c
	}
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}
	var validation []sim.Workload
	for _, name := range []string{"h264ref", "tonto"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		validation = append(validation, w)
	}
	mc, _, err := core.DesignMIMO(core.DesignSpec{
		ThreeInput:   threeInput,
		Training:     training,
		Validation:   validation,
		EpochsPerApp: 1500,
		Seed:         5,
	})
	if err != nil {
		t.Fatalf("DesignMIMO: %v", err)
	}
	lq, _ := mc.CurrentDesign()
	paperDesigns.ctrl[threeInput] = lq
	return lq
}

// shape is one random controller structure.
type shape struct {
	n, ni, no        int
	deltaU, integral bool
}

func (s shape) String() string {
	return fmt.Sprintf("n=%d ni=%d no=%d deltaU=%v integral=%v",
		s.n, s.ni, s.no, s.deltaU, s.integral)
}

// randomDesign designs a controller of shape s for a random stable
// plant drawn from rng, or returns nil when the draw is not designable.
func randomDesign(s shape, rng *rand.Rand) *lqg.Controller {
	a := mat.New(s.n, s.n)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			// Row sums of |a| stay below 0.95: a stable plant.
			a.Set(i, j, (2*rng.Float64()-1)*0.95/float64(s.n))
		}
	}
	b := mat.New(s.n, s.ni)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.ni; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	c := mat.New(s.no, s.n)
	for i := 0; i < s.no; i++ {
		for j := 0; j < s.n; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
	}
	plant, err := lti.NewStateSpace(a, b, c, nil, 50e-6)
	if err != nil {
		return nil
	}
	w := lqg.Weights{OutputWeights: make([]float64, s.no), InputWeights: make([]float64, s.ni)}
	for i := range w.OutputWeights {
		w.OutputWeights[i] = math.Exp(4 * rng.Float64())
	}
	for i := range w.InputWeights {
		w.InputWeights[i] = math.Exp(2 * rng.Float64())
	}
	noise := lqg.Noise{W: mat.Scale(1e-3, mat.Identity(s.n)), V: mat.Scale(1e-3, mat.Identity(s.no))}
	ctrl, err := lqg.Design(plant, w, noise, lqg.Options{DeltaU: s.deltaU, Integral: s.integral})
	if err != nil {
		return nil
	}
	return ctrl
}

// special returns a non-finite or extreme value, or ok=false.
func special(rng *rand.Rand) (float64, bool) {
	switch rng.Intn(40) {
	case 0:
		return math.NaN(), true
	case 1:
		return math.Inf(1), true
	case 2:
		return math.Inf(-1), true
	case 3:
		return math.Copysign(0, -1), true
	case 4:
		return rng.NormFloat64() * 1e200, true
	}
	return 0, false
}

// lockstep drives c and the reference r through epochs random epochs
// and fails at the first bit difference.
func lockstep(t *testing.T, stage string, c *lqg.Controller, r *lqg.Ref, rng *rand.Rand, epochs int) {
	t.Helper()
	no, ni := c.Plant().Outputs(), c.Plant().Inputs()
	y := make([]float64, no)
	applied := make([]float64, ni)
	for ep := 0; ep < epochs; ep++ {
		switch rng.Intn(100) {
		case 0, 1:
			ref := make([]float64, no)
			for i := range ref {
				ref[i] = rng.NormFloat64()
				if v, ok := special(rng); ok {
					ref[i] = v
				}
			}
			errC, errR := c.SetReference(ref), r.SetReference(ref)
			if (errC == nil) != (errR == nil) {
				t.Fatalf("%s epoch %d: SetReference error %v, reference %v", stage, ep, errC, errR)
			}
		case 2:
			c.Reset()
			r.Reset()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
			if v, ok := special(rng); ok {
				y[i] = v
			}
		}
		uc, errC := c.Step(y)
		ur, errR := r.Step(y)
		if errC != nil || errR != nil {
			t.Fatalf("%s epoch %d: Step errors %v, reference %v", stage, ep, errC, errR)
		}
		if d := lqg.SliceBitDiff(uc, ur); d != "" {
			t.Fatalf("%s epoch %d: returned input%s", stage, ep, d)
		}
		if d := lqg.FilteredBitDiff(c, r); d != "" {
			t.Fatalf("%s epoch %d: filtered estimate%s", stage, ep, d)
		}
		// The actuator: mostly a quantizer (so the excess arms the
		// anti-windup), sometimes exact, sometimes a broken value, and
		// sometimes no feedback at all.
		mode := rng.Intn(10)
		for i := range applied {
			switch {
			case mode < 6:
				applied[i] = math.Round(uc[i]*4) / 4
			case mode < 8:
				applied[i] = uc[i]
			default:
				applied[i] = rng.NormFloat64()
				if v, ok := special(rng); ok {
					applied[i] = v
				}
			}
		}
		if mode != 9 {
			if errC, errR := c.ObserveApplied(applied), r.ObserveApplied(applied); errC != nil || errR != nil {
				t.Fatalf("%s epoch %d: ObserveApplied errors %v, reference %v", stage, ep, errC, errR)
			}
		}
		if d := lqg.BitDiff(c, r); d != "" {
			t.Fatalf("%s epoch %d: state %s", stage, ep, d)
		}
	}
}

// TestStepMatchesReferencePaperDesigns runs the paper's 2-input design
// (the N4I2O2 kernel) and 3-input design (the N4I3O2 kernel) against
// the reference, with NaN and ±Inf in the outputs and applied inputs.
func TestStepMatchesReferencePaperDesigns(t *testing.T) {
	for _, three := range []bool{false, true} {
		name, kernel := "two-input", "N4I2O2"
		if three {
			name, kernel = "three-input", "N4I3O2"
		}
		t.Run(name, func(t *testing.T) {
			c := paperDesign(t, three).Clone()
			c.Reset()
			if got := c.Kernel(); got != kernel {
				t.Fatalf("the %s design runs kernel %q, want %q", name, got, kernel)
			}
			if err := c.SetReference([]float64{0.3, -0.2}); err != nil {
				t.Fatal(err)
			}
			lockstep(t, name, c, lqg.NewRef(c), rand.New(rand.NewSource(1)), 20000)
		})
	}
}

// TestStepMatchesReferenceRandomShapes runs random designs of every
// shape the controller supports — order 1–8, 1–3 inputs, 1–2 outputs,
// ΔU and integral each on and off — against the reference. Every
// fourth trial draws the next shape of the kernel table, with random
// gains, so every kernel runs at least
// minPerKernel designs; a uniform draw would reach (2, 1, 1, ΔU,
// integral) about once in 96 trials.
func TestStepMatchesReferenceRandomShapes(t *testing.T) {
	const minPerKernel = 10
	table := lqg.KernelTable()
	rng := rand.New(rand.NewSource(2))
	designed := 0
	ran := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		s := shape{n: 1 + rng.Intn(8), ni: 1 + rng.Intn(3),
			deltaU: rng.Intn(2) == 0, integral: rng.Intn(2) == 0}
		s.no = 1 + rng.Intn(min(2, s.ni))
		if trial%4 == 0 {
			k := table[trial/4%len(table)]
			s.n, s.ni, s.no, s.deltaU, s.integral = k.N, k.NI, k.NO, k.DeltaU, k.Integral
		}
		c := randomDesign(s, rng)
		if c == nil {
			continue
		}
		designed++
		ran[c.Kernel()]++
		lockstep(t, s.String(), c, lqg.NewRef(c), rng, 300)
	}
	if designed < 300 {
		t.Fatalf("only %d of 400 random designs succeeded", designed)
	}
	for _, k := range table {
		if ran[k.Kernel] < minPerKernel {
			t.Fatalf("kernel %s ran %d random designs, want at least %d (by kernel: %v)", k.Kernel, ran[k.Kernel], minPerKernel, ran)
		}
	}
}

// TestAblationDesignsRunKernels designs the ablation's four variants
// whose shape differs from the paper's through core.DesignMIMO, as
// paperDesign does, and runs each against the reference on its kernel.
func TestAblationDesignsRunKernels(t *testing.T) {
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}
	for _, v := range []struct {
		name   string
		mutate func(*core.DesignSpec)
		kernel string
	}{
		{"no Δu", func(s *core.DesignSpec) { s.DisableDeltaU = true }, "N4I2O2NoDeltaU"},
		{"no integral", func(s *core.DesignSpec) { s.DisableIntegral = true }, "N4I2O2NoIntegral"},
		{"model dimension 2", func(s *core.DesignSpec) { s.ModelDimension = 2 }, "N2I2O2"},
		{"model dimension 8", func(s *core.DesignSpec) { s.ModelDimension = 8 }, "N8I2O2"},
	} {
		t.Run(v.name, func(t *testing.T) {
			spec := core.DesignSpec{Training: training, EpochsPerApp: 1500, Seed: 5}
			v.mutate(&spec)
			mc, _, err := core.DesignMIMO(spec)
			if err != nil {
				t.Fatalf("DesignMIMO: %v", err)
			}
			lq, _ := mc.CurrentDesign()
			c := lq.Clone()
			c.Reset()
			if got := c.Kernel(); got != v.kernel {
				t.Fatalf("runs kernel %q, want %q", got, v.kernel)
			}
			if err := c.SetReference([]float64{0.3, -0.2}); err != nil {
				t.Fatal(err)
			}
			lockstep(t, v.name, c, lqg.NewRef(c), rand.New(rand.NewSource(3)), 2000)
		})
	}
}

// fuzzDesigns memoizes FuzzStepVsReference's designs by header bytes
// (nil when the plant is not designable): the mutator mostly keeps the
// header, and designing dominates an execution.
var fuzzDesigns = struct {
	sync.Mutex
	m map[[3]byte]*lqg.Controller
}{m: map[[3]byte]*lqg.Controller{}}

// FuzzStepVsReference decodes a shape, a plant seed and a stream of
// epochs from raw bytes. Each 25-byte record is an opcode and three
// float64 bit patterns: a reference change, a reset, or a step on the
// first outputs followed by feedback of the request, of a perturbed
// request, of the raw payload, or of nothing.
func FuzzStepVsReference(f *testing.F) {
	rec := func(op byte, a, b, c float64) []byte {
		out := []byte{op}
		for _, v := range []float64{a, b, c} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	// header encodes a shape as the fuzz body decodes it, with plant
	// seed 7.
	header := func(n, ni, no int, deltaU, integral bool) []byte {
		var flags byte
		if deltaU {
			flags |= 1
		}
		if integral {
			flags |= 2
		}
		return []byte{byte(n-1) | byte(ni-1)<<3 | byte(no-1)<<5, flags, 7}
	}
	fleet := header(4, 2, 2, true, true)
	f.Add(append(fleet, rec(2, 0.4, -0.1, 0.25)...))
	f.Add(append([]byte{7 | 2<<3, 0x01, 3}, append(rec(0, 1, 2, 0), rec(3, math.NaN(), math.Inf(1), 0.5)...)...))
	f.Add(append(append(fleet, rec(4, math.Inf(-1), 1, math.NaN())...), rec(5, 0.3, 0.2, math.Inf(1))...))
	// One seed per kernel: a reference change, then steps fed back
	// exactly, perturbed, from the payload and not at all.
	for _, k := range lqg.KernelTable() {
		body := append(header(k.N, k.NI, k.NO, k.DeltaU, k.Integral), rec(0, 0.5, -0.25, 0)...)
		for op := byte(2); op < 6; op++ {
			body = append(body, rec(op, 0.3, -0.6, 0.9)...)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		s := shape{n: 1 + int(data[0]&7), ni: 1 + int(data[0]>>3&3)%3,
			deltaU: data[1]&1 != 0, integral: data[1]&2 != 0}
		s.no = 1 + int(data[0]>>5&1)%min(2, s.ni)
		key := [3]byte{data[0], data[1], data[2]}
		fuzzDesigns.Lock()
		proto, ok := fuzzDesigns.m[key]
		if !ok {
			proto = randomDesign(s, rand.New(rand.NewSource(int64(data[2]))))
			fuzzDesigns.m[key] = proto
		}
		fuzzDesigns.Unlock()
		if proto == nil {
			t.Skip("plant not designable")
		}
		c := proto.Clone()
		r := lqg.NewRef(c)
		f64 := func(off int) float64 {
			var b [8]byte
			copy(b[:], data[min(off, len(data)):min(off+8, len(data))])
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		y := make([]float64, s.no)
		applied := make([]float64, s.ni)
		for off, ep := 3, 0; off < len(data) && ep < 256; off, ep = off+25, ep+1 {
			op := data[off]
			v := [3]float64{f64(off + 1), f64(off + 9), f64(off + 17)}
			switch op % 6 {
			case 0:
				errC, errR := c.SetReference(v[:s.no]), r.SetReference(v[:s.no])
				if (errC == nil) != (errR == nil) {
					t.Fatalf("epoch %d: SetReference error %v, reference %v", ep, errC, errR)
				}
			case 1:
				c.Reset()
				r.Reset()
			default:
				copy(y, v[:s.no])
				uc, errC := c.Step(y)
				ur, errR := r.Step(y)
				if errC != nil || errR != nil {
					t.Fatalf("epoch %d: Step errors %v, reference %v", ep, errC, errR)
				}
				if d := lqg.SliceBitDiff(uc, ur); d != "" {
					t.Fatalf("epoch %d: returned input%s", ep, d)
				}
				if d := lqg.FilteredBitDiff(c, r); d != "" {
					t.Fatalf("%v epoch %d: filtered estimate%s", s, ep, d)
				}
				for i := range applied {
					switch op % 6 {
					case 2:
						applied[i] = uc[i]
					case 3:
						applied[i] = uc[i] + v[i%3]
					case 4:
						applied[i] = v[i%3]
					}
				}
				if op%6 != 5 {
					if errC, errR := c.ObserveApplied(applied), r.ObserveApplied(applied); errC != nil || errR != nil {
						t.Fatalf("epoch %d: ObserveApplied errors %v, reference %v", ep, errC, errR)
					}
				}
			}
			if d := lqg.BitDiff(c, r); d != "" {
				t.Fatalf("%v epoch %d: state %s", s, ep, d)
			}
		}
	})
}

// TestSatThresholdMatchesSqrt pins the step's saturation compare
// nrm > SatThreshold to the reference's math.Sqrt(nrm) > 1e-12 —
// exhaustively for a few thousand ulps around the boundary, plus random
// magnitudes and the non-finite sentinels.
func TestSatThresholdMatchesSqrt(t *testing.T) {
	check := func(nrm float64) {
		t.Helper()
		want := math.Sqrt(nrm) > 1e-12
		got := nrm > lqg.SatThreshold
		if got != want {
			t.Fatalf("nrm=%v (bits %#x): threshold %v, sqrt %v", nrm, math.Float64bits(nrm), got, want)
		}
	}
	b := math.Float64bits(lqg.SatThreshold)
	for d := uint64(0); d <= 4096; d++ {
		check(math.Float64frombits(b - d))
		check(math.Float64frombits(b + d))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		check(math.Float64frombits(rng.Uint64() &^ (1 << 63))) // nrm is a sum of squares: non-negative
	}
	check(0)
	check(math.Inf(1))
	check(math.NaN())
}
