package decoupled

import (
	"math"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/lqg"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

func design(t *testing.T) *Controller {
	t.Helper()
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}
	c, err := Design(DesignSpec{Training: training, EpochsPerApp: 1500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDesignValidation(t *testing.T) {
	if _, err := Design(DesignSpec{}); err == nil {
		t.Fatal("expected training-required error")
	}
}

func TestInterfaceAndTargets(t *testing.T) {
	c := design(t)
	var _ core.ArchController = c
	if c.Name() != "Decoupled" {
		t.Fatal("name")
	}
	c.SetTargets(2.2, 1.8)
	ips, p := c.Targets()
	if ips != 2.2 || p != 1.8 {
		t.Fatalf("targets %v %v", ips, p)
	}
	c.Reset()
	if ips, p = c.Targets(); ips != 2.2 || p != 1.8 {
		t.Fatal("Reset must preserve targets")
	}
}

// TestLoopsAreOneTableShape: both SISO loops are order 2 with one input
// and one output, ΔU and integral action, the shape the lqg kernel
// table runs unrolled. Their controller state, [x̂; u_prev; z], has
// order + inputs + outputs = 4 entries only with both options on.
func TestLoopsAreOneTableShape(t *testing.T) {
	c := design(t)
	for name, loop := range map[string]*lqg.Controller{"cache": c.cacheLoop, "frequency": c.freqLoop} {
		p := loop.Plant()
		ss, err := loop.AsStateSpace()
		if err != nil {
			t.Fatal(err)
		}
		if p.Order() != 2 || p.Inputs() != 1 || p.Outputs() != 1 || ss.Order() != 4 {
			t.Fatalf("%s loop: order %d, %d input(s), %d output(s), controller order %d; want (2, 1, 1) with ΔU and integral (controller order 4)",
				name, p.Order(), p.Inputs(), p.Outputs(), ss.Order())
		}
	}
}

func TestDecoupledTracksPowerWell(t *testing.T) {
	// The frequency->power SISO loop is sound in isolation: on a
	// responsive app, power must be tracked reasonably even if the two
	// loops fight over IPS (paper Fig. 11a: "all three architectures
	// result in good power tracking").
	c := design(t)
	w, err := workloads.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 33)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTargets(2.5, 2.0)
	tel := proc.Step()
	var sumP, sumIPS float64
	n := 0
	for k := 0; k < 3000; k++ {
		cfg := c.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		tel = proc.Step()
		if k >= 2500 {
			sumP += tel.TruePowerW
			sumIPS += tel.TrueIPS
			n++
		}
	}
	avgP := sumP / float64(n)
	if e := math.Abs(avgP-2.0) / 2.0; e > 0.15 {
		t.Fatalf("decoupled power error %.1f%% (avg %.3f W)", e*100, avgP)
	}
	if sumIPS/float64(n) < 0.5 {
		t.Fatalf("decoupled IPS collapsed: %.3f", sumIPS/float64(n))
	}
}

func TestStepKeepsROBFixed(t *testing.T) {
	c := design(t)
	tel := sim.Telemetry{IPS: 1, PowerW: 1, Config: sim.BaselineConfig()}
	cfg := c.Step(tel)
	if cfg.ROBIdx != sim.BaselineConfig().ROBIdx {
		t.Fatalf("decoupled controller moved the ROB: %v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAntagonismOnCacheSensitiveApp(t *testing.T) {
	// The defining decoupled pathology (paper §II): on an application
	// whose IPS depends on the cache, the uncoordinated loops settle at
	// a worse IPS point than the coordinated MIMO controller does.
	dec := design(t)
	w, err := workloads.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctrl core.ArchController) float64 {
		ctrl.Reset()
		ctrl.SetTargets(2.5, 2.0)
		proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 55)
		if err != nil {
			t.Fatal(err)
		}
		tel := proc.Step()
		var sum float64
		n := 0
		for k := 0; k < 3500; k++ {
			cfg := ctrl.Step(tel)
			if err := proc.Apply(cfg); err != nil {
				t.Fatal(err)
			}
			tel = proc.Step()
			if k > 2800 {
				sum += tel.TrueIPS
				n++
			}
		}
		return sum / float64(n)
	}
	decIPS := run(dec)
	if decIPS < 1.0 {
		t.Fatalf("decoupled IPS collapsed entirely: %.3f", decIPS)
	}
	// The decoupled pair must lose measurable IPS vs the target on this
	// app (which the MIMO controller tracks within ~10%, see fig11).
	if decIPS > 2.45 {
		t.Fatalf("decoupled tracked milc perfectly (%.3f BIPS); antagonism not exercised", decIPS)
	}
}

func TestResetClearsLoopState(t *testing.T) {
	c := design(t)
	// Drive the loops into a skewed state with bogus telemetry.
	for i := 0; i < 50; i++ {
		c.Step(sim.Telemetry{IPS: 9, PowerW: 0.1, Config: sim.BaselineConfig()})
	}
	c.Reset()
	// After a reset with clean telemetry at the operating point, the
	// first actions must be bounded (no wound-up integrator jump to a
	// range extreme on both knobs at once).
	cfg := c.Step(sim.Telemetry{IPS: 1.5, PowerW: 1.5, Config: sim.MidrangeConfig()})
	if cfg.FreqIdx == 0 && cfg.CacheIdx == len(sim.CacheSettings)-1 {
		t.Fatalf("post-reset state still wound up: %v", cfg)
	}
}
