package core

import (
	"errors"
	"math"

	"mimoctl/internal/sim"
)

// BatteryScheduler is the high-level agent of the paper's time-varying
// tracking experiment (§V "Time-Varying Tracking", §VII-B2): it monitors
// battery depletion and lowers the (IPS, power) references as energy
// runs out, following a QoE-style tradeoff (Yan et al., MICRO 2015): at
// high charge, performance is preferred; as charge drops, targets are
// throttled to stretch battery life with the least QoE loss.
type BatteryScheduler struct {
	initialIPS   float64
	initialPower float64
	totalEnergyJ float64
	changeEvery  int
	minFrac      float64
	gamma        float64

	consumedJ float64
	epochs    int
	curIPS    float64
	curPower  float64
}

// BatteryScheduleConfig parameterizes the agent; zero values take the
// paper's experiment settings (§VII-B2: 2000-epoch reference updates,
// 1 J total energy).
type BatteryScheduleConfig struct {
	InitialIPS   float64
	InitialPower float64
	TotalEnergyJ float64
	// ChangeEveryEpochs is the reference update period.
	ChangeEveryEpochs int
	// MinFraction is the lowest target scaling as the battery empties.
	MinFraction float64
	// Gamma shapes the QoE tradeoff: target fraction =
	// min + (1-min)·remaining^gamma.
	Gamma float64
}

// NewBatteryScheduler builds the agent.
func NewBatteryScheduler(cfg BatteryScheduleConfig) (*BatteryScheduler, error) {
	if cfg.InitialIPS <= 0 || cfg.InitialPower <= 0 {
		return nil, errors.New("core: initial targets must be positive")
	}
	if cfg.TotalEnergyJ == 0 {
		cfg.TotalEnergyJ = 1.0
	}
	if cfg.TotalEnergyJ < 0 {
		return nil, errors.New("core: total energy must be positive")
	}
	if cfg.ChangeEveryEpochs == 0 {
		cfg.ChangeEveryEpochs = 2000
	}
	if cfg.MinFraction == 0 {
		cfg.MinFraction = 0.3
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 0.7
	}
	return &BatteryScheduler{
		initialIPS: cfg.InitialIPS, initialPower: cfg.InitialPower,
		totalEnergyJ: cfg.TotalEnergyJ, changeEvery: cfg.ChangeEveryEpochs,
		minFrac: cfg.MinFraction, gamma: cfg.Gamma,
		curIPS: cfg.InitialIPS, curPower: cfg.InitialPower,
	}, nil
}

// Step accounts the epoch's energy and returns the current references
// and whether they just changed.
func (b *BatteryScheduler) Step(t sim.Telemetry) (ips, power float64, changed bool) {
	b.consumedJ += t.EnergyJ
	b.epochs++
	if b.epochs%b.changeEvery == 0 {
		frac := b.TargetFraction()
		newIPS := b.initialIPS * frac
		newPower := b.initialPower * frac
		changed = newIPS != b.curIPS || newPower != b.curPower
		b.curIPS, b.curPower = newIPS, newPower
	}
	return b.curIPS, b.curPower, changed
}

// Remaining returns the battery fraction left in [0, 1].
func (b *BatteryScheduler) Remaining() float64 {
	r := 1 - b.consumedJ/b.totalEnergyJ
	if r < 0 {
		return 0
	}
	return r
}

// TargetFraction returns the current QoE-optimal scaling of the initial
// targets.
func (b *BatteryScheduler) TargetFraction() float64 {
	return b.minFrac + (1-b.minFrac)*math.Pow(b.Remaining(), b.gamma)
}
