package experiments

import (
	"mimoctl/internal/adapt"
	"mimoctl/internal/health"
	"mimoctl/internal/supervisor"
)

// The adaptive architecture: the designed MIMO controller under the
// supervised runtime with the model-health monitor and the adaptation
// loop (internal/adapt) attached. On detected drift the adapter excites
// the plant, re-identifies it with streaming RLS, redesigns the LQG
// gains, and hot-swaps them into the running controller — the sweep's
// answer to the one fault class the non-adaptive supervisor cannot fix.

// Adaptation tuning for the sweep timeline: the drift ramp occupies
// [epochs/4, 3·epochs/8) and recovery is scored from 3·epochs/4, so
// detection, excitation, and redesign must all complete inside one
// quarter of the run (1000 epochs at the default 4000).
const (
	// adaptFailStreak is how many consecutive monitor-fail epochs arm
	// the drift trigger.
	adaptFailStreak = 96
	// adaptExciteEpochs / adaptDitherHold shape the identification
	// dither round.
	adaptExciteEpochs = 600
	adaptDitherHold   = 4
	// adaptSettleEpochs / adaptCooldownEpochs are the post-swap rearm
	// delay and the lockout after an exhausted (or reverted) episode.
	adaptSettleEpochs   = 200
	adaptCooldownEpochs = 800
	// adaptProbationEpochs is the post-swap watch window in which a
	// monitor re-fail reverts the swap.
	adaptProbationEpochs = 600
)

// Sweep model-health tuning. The whiteness thresholds are disabled
// (negative): a quantized-actuation closed loop's innovation is never
// white even when healthy (the quantizer injects correlated
// disturbance), so whiteness cannot separate drift from nominal here —
// guardband consumption can. The consumption thresholds are calibrated
// against the namd sweep workload: the nominal engaged loop idles near
// an EMA consumption of ~0.22-0.25, while the plant-drift class pushes
// it well past the fail line (see TestFaultSweep and the figures in
// faults_test.go).
const (
	adaptMonWindow    = 128
	adaptMonEvalEvery = 16
	adaptMonConsAlpha = 0.05
	adaptMonConsWarn  = 0.30
	adaptMonConsFail  = 0.40
	adaptMonWhiteWarn = -1
	adaptMonWhiteFail = -1
)

// newSweepMonitor builds the sweep-tuned model-health monitor shared by
// the monitored and adaptive supervised architectures.
func newSweepMonitor() *health.Monitor {
	return health.NewMonitor(health.Options{
		Window:           adaptMonWindow,
		EvalEvery:        adaptMonEvalEvery,
		ConsumptionAlpha: adaptMonConsAlpha,
		ConsumptionWarn:  adaptMonConsWarn,
		ConsumptionFail:  adaptMonConsFail,
		WhitenessWarn:    adaptMonWhiteWarn,
		WhitenessFail:    adaptMonWhiteFail,
	})
}

// NewMonitoredSupervised builds the non-adaptive supervised architecture
// for the fault sweep and RecordedRun: the same supervised runtime and
// model-health monitor as the adaptive arch, with no adapter. Under
// plant drift its monitor reaches the fail verdict, the supervisor pins
// the safe configuration, and — with nothing able to restore the
// certificate — it stays there: the control the adaptive arch is
// measured against.
func NewMonitoredSupervised(seed int64) (*supervisor.Supervised, error) {
	proto, _, err := DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	return supervisor.New(bindMIMO(proto.Clone()), supervisor.Options{ModelHealth: newSweepMonitor()}), nil
}

// NewAdaptiveSupervised builds the adaptive architecture for the fault
// sweep and RecordedRun. Both call sites must construct it identically
// (same seeds, same tuning) so a recorded adaptive run replays
// byte-for-byte.
func NewAdaptiveSupervised(seed int64) (*supervisor.Supervised, error) {
	proto, rep, err := DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	ctrl := bindMIMO(proto.Clone())
	mon := newSweepMonitor()
	opts := adapt.Options{
		Model:           rep.Model,
		Target:          ctrl,
		Monitor:         mon,
		Seed:            seed + 9001,
		FailStreak:      adaptFailStreak,
		ExciteEpochs:    adaptExciteEpochs,
		DitherHold:      adaptDitherHold,
		SettleEpochs:    adaptSettleEpochs,
		CooldownEpochs:  adaptCooldownEpochs,
		ProbationEpochs: adaptProbationEpochs,
	}
	if len(rep.Guardbands) == 2 {
		opts.IPSGuardband = rep.Guardbands[0]
		opts.PowerGuardband = rep.Guardbands[1]
	}
	ad, err := adapt.New(opts)
	if err != nil {
		return nil, err
	}
	return supervisor.New(ctrl, supervisor.Options{ModelHealth: mon, Adapter: ad}), nil
}
