package sim_test

import (
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// processorTotals is the run StaticSweep reproduces: one processor held
// at cfg, settled, reset and measured.
func processorTotals(t testing.TB, w sim.Workload, opts sim.ProcessorOptions, seed int64, cfg sim.Config, settle, epochs int) sim.Totals {
	t.Helper()
	p, err := sim.NewProcessor(w, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < settle; i++ {
		p.Step()
	}
	p.ResetTotals()
	for i := 0; i < epochs; i++ {
		p.Step()
	}
	e, n, s := p.Totals()
	return sim.Totals{EnergyJ: e, Instructions: n, Seconds: s}
}

// checkSweep compares StaticSweep with one processor per configuration,
// total by total, by bit pattern.
func checkSweep(t testing.TB, w sim.Workload, opts sim.ProcessorOptions, seed int64, cfgs []sim.Config, settle, epochs int) {
	t.Helper()
	got, err := sim.StaticSweep(w, opts, seed, cfgs, settle, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("%d totals for %d configurations", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want := processorTotals(t, w, opts, seed, cfg, settle, epochs)
		if d := sim.BitDiff(got[i], want); d != "" {
			t.Fatalf("%s seed %d %v (deterministic %v, settle %d, epochs %d): %s",
				w.Name(), seed, cfg, opts.Deterministic, settle, epochs, d)
		}
	}
}

// twoInputConfigs are the configurations the two-input knob set spans:
// every frequency and cache setting at the paper's 48-entry ROB.
func twoInputConfigs() []sim.Config {
	var out []sim.Config
	for _, cfg := range allConfigs() {
		if cfg.ROBIdx == sim.BaselineConfig().ROBIdx {
			out = append(out, cfg)
		}
	}
	return out
}

// spreadConfigs picks n configurations spread over all 512 (37 is
// coprime to 512, so consecutive picks move every knob).
func spreadConfigs(n int) []sim.Config {
	all := allConfigs()
	out := make([]sim.Config, n)
	for i := range out {
		out[i] = configWalk(all, i)
	}
	return out
}

func sweepOptions() map[string]sim.ProcessorOptions {
	det := sim.DefaultProcessorOptions()
	det.Deterministic = true
	return map[string]sim.ProcessorOptions{"default": sim.DefaultProcessorOptions(), "deterministic": det}
}

// TestStaticSweepMatchesProcessor checks every configuration of both
// knob sets on every training application, under default and
// deterministic options; a sweep with no settle epochs; and a measured
// window that crosses a phase boundary (training phases last at least
// 2 500 epochs, so the profiling window of 320 never does).
func TestStaticSweepMatchesProcessor(t *testing.T) {
	sjeng, err := workloads.ByName("sjeng")
	if err != nil {
		t.Fatal(err)
	}
	knobSets := map[string][]sim.Config{"two-input": twoInputConfigs(), "three-input": allConfigs()}
	for optName, opts := range sweepOptions() {
		for setName, cfgs := range knobSets {
			t.Run(optName+"/"+setName, func(t *testing.T) {
				for wi, w := range workloads.TrainingSet() {
					checkSweep(t, w, opts, 7+int64(wi), cfgs, 20, 300)
				}
			})
		}
		t.Run(optName+"/no-settle", func(t *testing.T) {
			checkSweep(t, sjeng, opts, 1, spreadConfigs(24), 0, 120)
		})
		t.Run(optName+"/phase-boundary", func(t *testing.T) {
			const settle, epochs = 20, 4100
			_, first := sjeng.Params(settle)
			_, last := sjeng.Params(settle + epochs - 1)
			if first == last {
				t.Fatalf("sjeng epochs %d..%d stay in phase %d; the window must cross a boundary", settle, settle+epochs-1, first)
			}
			checkSweep(t, sjeng, opts, 2016, spreadConfigs(6), settle, epochs)
		})
	}
}

// TestStaticSweepEdges: no configurations give no totals, an invalid
// configuration or a missing workload is an error.
func TestStaticSweepEdges(t *testing.T) {
	w, err := workloads.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultProcessorOptions()
	if got, err := sim.StaticSweep(w, opts, 1, nil, 20, 300); err != nil || len(got) != 0 {
		t.Errorf("no configurations: %v, %v; want no totals and no error", got, err)
	}
	bad := []sim.Config{sim.BaselineConfig(), {FreqIdx: len(sim.FreqSettingsGHz)}}
	if _, err := sim.StaticSweep(w, opts, 1, bad, 20, 300); err == nil {
		t.Error("an invalid configuration was swept")
	}
	if _, err := sim.StaticSweep(nil, opts, 1, spreadConfigs(2), 20, 300); err == nil {
		t.Error("a nil workload was swept")
	}
	checkSweep(t, w, opts, 3, spreadConfigs(3), 5, 0)
	checkSweep(t, w, opts, 3, spreadConfigs(3), -4, -1)
}

// FuzzStaticSweepMatchesProcessor takes the seed, the workload, the
// configuration subset (two bytes per configuration, up to 16), the
// settle and measured lengths and the noise switches from the fuzzer,
// and compares the sweep with one processor per configuration.
func FuzzStaticSweepMatchesProcessor(f *testing.F) {
	f.Add(int64(7), uint8(0), []byte{0, 42, 1, 2, 1, 255}, uint16(20), uint16(300), false, false)
	f.Add(int64(1), uint8(3), []byte{0, 0, 0, 1}, uint16(0), uint16(64), true, false)
	f.Add(int64(2016), uint8(5), []byte{1, 9, 0, 200}, uint16(0), uint16(50), false, true)
	f.Add(int64(-3), uint8(200), []byte{}, uint16(10), uint16(10), false, false)
	// sjeng's first phase ends at epoch 4000.
	all := workloads.All()
	for i, p := range all {
		if p.Name() == "sjeng" {
			f.Add(int64(401), uint8(i), []byte{0, 17, 1, 130}, uint16(30), uint16(4100), false, false)
		}
	}
	cfgs := allConfigs()
	f.Fuzz(func(t *testing.T, seed int64, wl uint8, picks []byte, settle, epochs uint16, deterministic, quietAR bool) {
		w := all[int(wl)%len(all)]
		opts := sim.DefaultProcessorOptions()
		opts.Deterministic = deterministic
		if quietAR {
			opts.PhaseNoiseStd = 0
		}
		var sub []sim.Config
		for i := 0; i+1 < len(picks) && len(sub) < 16; i += 2 {
			sub = append(sub, cfgs[(int(picks[i])<<8|int(picks[i+1]))%len(cfgs)])
		}
		checkSweep(t, w, opts, seed, sub, int(settle%512), int(epochs%8192))
	})
}
