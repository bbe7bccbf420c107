package sim_test

import (
	"fmt"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// allConfigs enumerates the 512 knob configurations.
func allConfigs() []sim.Config {
	var out []sim.Config
	for fi := range sim.FreqSettingsGHz {
		for ci := range sim.CacheSettings {
			for ri := range sim.ROBSettings {
				out = append(out, sim.Config{FreqIdx: fi, CacheIdx: ci, ROBIdx: ri})
			}
		}
	}
	return out
}

// TestSurfaceMatchesReference is the exhaustive table check: every
// phase of every profile at every configuration, with one surface per
// phase refreshed for it and then reused, against the reference.
func TestSurfaceMatchesReference(t *testing.T) {
	for _, prof := range workloads.All() {
		for id, ph := range prof.Phases {
			var s sim.Surface
			stage := fmt.Sprintf("%s phase %d", prof.Name(), id)
			sim.CheckSurface(t, stage, &s, ph.Params, 0, 0, 0, 50)
			sim.CheckSurface(t, stage, &s, ph.Params, 12.4, 5.3, 0.1, 85)
		}
	}
}

// configWalk returns the configuration applied at step j of a scripted
// walk that visits all 512 configurations in every 512 consecutive
// steps (37 is coprime to 512), moving every knob often.
func configWalk(cfgs []sim.Config, j int) sim.Config {
	return cfgs[j*37%len(cfgs)]
}

// walkEvery is the number of epochs each walk configuration is held.
const walkEvery = 3

// walkEpochs is long enough for the walk to visit every configuration
// and for the profile to run one full phase cycle and re-enter its
// first phase.
func walkEpochs(prof *workloads.Profile, nCfg int) int {
	cycle := 0
	for _, ph := range prof.Phases {
		cycle += ph.DurationEpochs
	}
	return max(cycle+1, nCfg*walkEvery)
}

// TestProcessorMatchesReference runs the processor in lockstep with the
// reference stepper, each on its own identically seeded plant, for
// every profile under default noise and the scripted walk, and
// compares every Telemetry field by bit pattern every epoch.
func TestProcessorMatchesReference(t *testing.T) {
	cfgs := allConfigs()
	for _, prof := range workloads.All() {
		got, err := sim.NewProcessor(prof, sim.DefaultProcessorOptions(), 7)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sim.NewProcessor(prof, sim.DefaultProcessorOptions(), 7)
		if err != nil {
			t.Fatal(err)
		}
		visited := map[sim.Config]bool{}
		phases := map[int]bool{}
		n := walkEpochs(prof, len(cfgs))
		for k := 0; k < n; k++ {
			if k%walkEvery == 0 {
				cfg := configWalk(cfgs, k/walkEvery)
				if err := got.Apply(cfg); err != nil {
					t.Fatal(err)
				}
				if err := ref.Apply(cfg); err != nil {
					t.Fatal(err)
				}
				visited[cfg] = true
			}
			a, b := got.Step(), sim.RefStep(ref)
			if d := sim.BitDiff(a, b); d != "" {
				t.Fatalf("%s epoch %d: %s", prof.Name(), k, d)
			}
			phases[a.PhaseID] = true
		}
		if len(visited) != len(cfgs) || len(phases) != len(prof.Phases) {
			t.Fatalf("%s: walk visited %d/%d configs and %d/%d phases", prof.Name(),
				len(visited), len(cfgs), len(phases), len(prof.Phases))
		}
		ge, gi, gs := got.Totals()
		re, ri, rs := ref.Totals()
		if d := sim.BitDiff(struct{ E, I, S float64 }{ge, gi, gs}, struct{ E, I, S float64 }{re, ri, rs}); d != "" {
			t.Fatalf("%s totals: %s", prof.Name(), d)
		}
	}
}

// TestTraceProcessorMatchesReference is the lockstep differential in
// trace mode, where the measured miss rates rewrite the miss-curve key
// every epoch.
func TestTraceProcessorMatchesReference(t *testing.T) {
	prof, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	newTP := func() *sim.TraceProcessor {
		tp, err := sim.NewTraceProcessor(tracedProfile{prof}, sim.DefaultProcessorOptions(), 11)
		if err != nil {
			t.Fatal(err)
		}
		tp.MaxAccessesPerEpoch = 512 // keep the replay short; both sides sample alike
		return tp
	}
	got, ref := newTP(), newTP()
	cfgs := allConfigs()
	n := len(cfgs) * walkEvery
	for k := 0; k < n; k++ {
		if k%walkEvery == 0 {
			cfg := configWalk(cfgs, k/walkEvery)
			if err := got.Apply(cfg); err != nil {
				t.Fatal(err)
			}
			if err := ref.Apply(cfg); err != nil {
				t.Fatal(err)
			}
		}
		a, b := got.Step(), sim.RefTraceStep(ref)
		if d := sim.BitDiff(a, b); d != "" {
			t.Fatalf("epoch %d: %s", k, d)
		}
	}
}
