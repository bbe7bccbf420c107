package core

import (
	"errors"
	"fmt"
	"math"

	"mimoctl/internal/sim"
)

// StaticController is the paper's Baseline architecture (Table IV): the
// inputs are fixed at the configuration that profiling found best for
// the target metric on the training set. It ignores telemetry.
type StaticController struct {
	cfg        sim.Config
	ips, power float64
}

// NewStaticController pins the given configuration.
func NewStaticController(cfg sim.Config) (*StaticController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StaticController{cfg: cfg, ips: DefaultIPSTarget, power: DefaultPowerTarget}, nil
}

// Name implements ArchController.
func (s *StaticController) Name() string { return "Baseline" }

// SetTargets implements ArchController (targets are recorded but have no
// effect on a non-configurable architecture).
func (s *StaticController) SetTargets(ips, power float64) { s.ips, s.power = ips, power }

// Targets implements ArchController.
func (s *StaticController) Targets() (float64, float64) { return s.ips, s.power }

// Step implements ArchController.
func (s *StaticController) Step(sim.Telemetry) sim.Config { return s.cfg }

// Reset implements ArchController.
func (s *StaticController) Reset() {}

// staticSettleEpochs are run at each configuration before its totals
// are measured, so the actuation transients do not count.
const staticSettleEpochs = 20

// StaticProfile is what profiling measured of every configuration of
// one knob set on the training applications: energy, instructions and
// seconds per (application, configuration). It does not depend on the
// metric, so one profile serves every E·D^(k-1) selection (Best). It is
// read-only once built and safe for concurrent use.
type StaticProfile struct {
	cfgs []sim.Config
	// totals[wi][ci] is cfgs[ci] on training application wi.
	totals [][]sim.Totals
}

// ProfileStatic profiles every configuration on the training
// applications, epochsPerApp measured epochs each (400 when
// non-positive) after a short settle, application wi under seed+wi:
// one lockstep sim.StaticSweep per application. With threeInput false
// the ROB is held at the paper's 48-entry baseline.
func ProfileStatic(training []sim.Workload, threeInput bool, epochsPerApp int, seed int64) (*StaticProfile, error) {
	if len(training) == 0 {
		return nil, errors.New("core: no training workloads")
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
	prof := &StaticProfile{totals: make([][]sim.Totals, len(training))}
	for fi := range sim.FreqSettingsGHz {
		for ci := range sim.CacheSettings {
			for _, ri := range robIdxs {
				prof.cfgs = append(prof.cfgs, sim.Config{FreqIdx: fi, CacheIdx: ci, ROBIdx: ri})
			}
		}
	}
	for wi, w := range training {
		t, err := sim.StaticSweep(w, sim.DefaultProcessorOptions(), seed+int64(wi), prof.cfgs, staticSettleEpochs, epochsPerApp)
		if err != nil {
			return nil, err
		}
		prof.totals[wi] = t
	}
	return prof, nil
}

// Best returns the profiled configuration minimizing the geometric-mean
// E·D^(k-1) per instruction over the training applications, and that
// mean (the paper's Baseline selection: "we profile the training set
// applications and find the cache size, frequency, and ROB size that
// deliver the best output"). A configuration with a non-positive or
// infinite metric on any application is skipped. k must be at least 1.
func (p *StaticProfile) Best(k int) (sim.Config, float64, error) {
	if k < 1 {
		return sim.Config{}, 0, fmt.Errorf("core: metric exponent k must be >= 1, got %d", k)
	}
	bestCfg := sim.BaselineConfig()
	bestMetric := math.Inf(1)
	for ci, cfg := range p.cfgs {
		logSum := 0.0
		valid := true
		for _, totals := range p.totals {
			t := totals[ci]
			m := sim.EnergyDelayProduct(t.EnergyJ, t.Instructions, t.Seconds, k)
			if math.IsInf(m, 1) || m <= 0 {
				valid = false
				break
			}
			logSum += math.Log(m)
		}
		if !valid {
			continue
		}
		metric := math.Exp(logSum / float64(len(p.totals)))
		if metric < bestMetric {
			bestMetric, bestCfg = metric, cfg
		}
	}
	return bestCfg, bestMetric, nil
}
