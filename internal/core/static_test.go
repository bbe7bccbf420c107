package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mimoctl/internal/sim"
)

// refFindBestStatic is the per-processor Baseline search: one fresh
// processor per (configuration, training application), held at the
// configuration, settled 20 epochs, then measured by summing each
// epoch's telemetry (the additions the processor's own totals make, in
// the same order), for one k. It is the oracle ProfileStatic(...).Best(k)
// must reproduce bit for bit; the body is not to be edited.
func refFindBestStatic(training []sim.Workload, k int, threeInput bool, epochsPerApp int, seed int64) (sim.Config, float64, error) {
	if len(training) == 0 {
		return sim.Config{}, 0, errors.New("core: no training workloads")
	}
	if epochsPerApp <= 0 {
		epochsPerApp = 400
	}
	robIdxs := []int{sim.BaselineConfig().ROBIdx}
	if threeInput {
		robIdxs = robIdxs[:0]
		for i := range sim.ROBSettings {
			robIdxs = append(robIdxs, i)
		}
	}
	bestCfg := sim.BaselineConfig()
	bestMetric := math.Inf(1)
	for fi := range sim.FreqSettingsGHz {
		for ci := range sim.CacheSettings {
			for _, ri := range robIdxs {
				cfg := sim.Config{FreqIdx: fi, CacheIdx: ci, ROBIdx: ri}
				logSum := 0.0
				valid := true
				for wi, w := range training {
					proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), seed+int64(wi))
					if err != nil {
						return sim.Config{}, 0, err
					}
					if err := proc.Apply(cfg); err != nil {
						return sim.Config{}, 0, err
					}
					for i := 0; i < 20; i++ { // settle transients
						proc.Step()
					}
					var e, n, s float64
					for i := 0; i < epochsPerApp; i++ {
						t := proc.Step()
						e += t.EnergyJ
						n += t.Instructions
						s += sim.EpochSeconds
					}
					m := sim.EnergyDelayProduct(e, n, s, k)
					if math.IsInf(m, 1) || m <= 0 {
						valid = false
						break
					}
					logSum += math.Log(m)
				}
				if !valid {
					continue
				}
				metric := math.Exp(logSum / float64(len(training)))
				if metric < bestMetric {
					bestMetric, bestCfg = metric, cfg
				}
			}
		}
	}
	return bestCfg, bestMetric, nil
}

// TestBestMatchesReference: the profile's selection equals the
// per-processor search, configuration and metric bits both, for k = 1–3
// on both knob sets and three seeds. The profiles run the experiments'
// 300 measured epochs.
func TestBestMatchesReference(t *testing.T) {
	training := trainingWorkloads(t)
	for _, three := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 2016} {
			t.Run(fmt.Sprintf("three=%v/seed=%d", three, seed), func(t *testing.T) {
				prof, err := ProfileStatic(training, three, 300, seed)
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k <= 3; k++ {
					gotCfg, gotMetric, err := prof.Best(k)
					if err != nil {
						t.Fatal(err)
					}
					wantCfg, wantMetric, err := refFindBestStatic(training, k, three, 300, seed)
					if err != nil {
						t.Fatal(err)
					}
					if gotCfg != wantCfg || math.Float64bits(gotMetric) != math.Float64bits(wantMetric) {
						t.Errorf("k=%d: Best = %v, %v (%#016x); reference %v, %v (%#016x)", k,
							gotCfg, gotMetric, math.Float64bits(gotMetric),
							wantCfg, wantMetric, math.Float64bits(wantMetric))
					}
				}
			})
		}
	}
}

// TestBestRejectsK: k below 1 is an error, not the energy-optimal
// configuration.
func TestBestRejectsK(t *testing.T) {
	prof, err := ProfileStatic(trainingWorkloads(t)[:1], false, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, -1} {
		if cfg, _, err := prof.Best(k); err == nil {
			t.Errorf("Best(%d) = %v, want an error", k, cfg)
		}
	}
}

func TestStaticControllerAndSearch(t *testing.T) {
	prof, err := ProfileStatic(trainingWorkloads(t), false, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, metric, err := prof.Best(2)
	if err != nil {
		t.Fatal(err)
	}
	if metric <= 0 || math.IsInf(metric, 0) {
		t.Fatalf("metric %v", metric)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The 2-input search must keep the paper's ROB.
	if cfg.ROBIdx != sim.BaselineConfig().ROBIdx {
		t.Fatalf("2-input baseline moved ROB: %v", cfg)
	}
	s, err := NewStaticController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var _ ArchController = s
	if got := s.Step(sim.Telemetry{}); got != cfg {
		t.Fatal("static controller must return its pinned config")
	}
	s.SetTargets(1, 1)
	if i, p := s.Targets(); i != 1 || p != 1 {
		t.Fatal("targets")
	}
	if s.Name() != "Baseline" || s.cfg != cfg {
		t.Fatal("accessors")
	}
	if _, err := NewStaticController(sim.Config{FreqIdx: 99}); err == nil {
		t.Fatal("expected invalid-config error")
	}
	if _, err := ProfileStatic(nil, false, 10, 1); err == nil {
		t.Fatal("expected no-workloads error")
	}
}
