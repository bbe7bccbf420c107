package core

import (
	"math"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

func TestKnobConversionRoundTrip(t *testing.T) {
	cfg := sim.Config{FreqIdx: 7, CacheIdx: 2, ROBIdx: 5}
	u3 := knobsFromConfigInto(nil, cfg, true)
	if len(u3) != 3 {
		t.Fatalf("3-input knobs %v", u3)
	}
	if u3[0] != cfg.FreqGHz() || u3[1] != float64(cfg.L2Ways()) || u3[2] != float64(cfg.ROBEntries())/16 {
		t.Fatalf("knob values %v", u3)
	}
	back := configFromKnobs(u3, true, sim.BaselineConfig())
	if back != cfg {
		t.Fatalf("round trip %v != %v", back, cfg)
	}
	// Two-input variant preserves the current ROB.
	u2 := knobsFromConfigInto(nil, cfg, false)
	if len(u2) != 2 {
		t.Fatalf("2-input knobs %v", u2)
	}
	cur := sim.Config{FreqIdx: 0, CacheIdx: 0, ROBIdx: 6}
	back2 := configFromKnobs(u2, false, cur)
	if back2.ROBIdx != 6 {
		t.Fatalf("2-input conversion changed ROB: %v", back2)
	}
	if back2.FreqIdx != cfg.FreqIdx || back2.CacheIdx != cfg.CacheIdx {
		t.Fatalf("2-input conversion wrong: %v", back2)
	}
}

func TestCollectIdentificationData(t *testing.T) {
	training := []sim.Workload{mustWorkload(t, "namd"), mustWorkload(t, "sjeng")}
	d, err := CollectIdentificationData(training, true, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if d.Samples() != 598 { // (epochs-1) per app: u pairs with the next epoch's y
		t.Fatalf("samples %d", d.Samples())
	}
	if d.U.Cols() != 3 || d.Y.Cols() != 2 {
		t.Fatalf("dims %dx%d / %dx%d", d.U.Rows(), d.U.Cols(), d.Y.Rows(), d.Y.Cols())
	}
	// Inputs must be legal knob levels.
	freqs := map[float64]bool{}
	for _, f := range sim.FreqLevels() {
		freqs[f] = true
	}
	for k := 0; k < d.Samples(); k++ {
		if !freqs[d.U.At(k, 0)] {
			t.Fatalf("sample %d: frequency %v not a legal setting", k, d.U.At(k, 0))
		}
		w := d.U.At(k, 1)
		if w != 2 && w != 4 && w != 6 && w != 8 {
			t.Fatalf("sample %d: cache ways %v illegal", k, w)
		}
		r := d.U.At(k, 2)
		if r < 1 || r > 8 || r != math.Trunc(r) {
			t.Fatalf("sample %d: normalized ROB %v illegal", k, r)
		}
		if d.Y.At(k, 0) <= 0 || d.Y.At(k, 1) <= 0 {
			t.Fatalf("sample %d: nonpositive outputs", k)
		}
	}
	// Errors.
	if _, err := CollectIdentificationData(nil, false, 300, 1); err == nil {
		t.Fatal("expected no-workloads error")
	}
	if _, err := CollectIdentificationData(training, false, 10, 1); err == nil {
		t.Fatal("expected too-few-epochs error")
	}
}

func mustWorkload(t *testing.T, name string) sim.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func trainingWorkloads(t *testing.T) []sim.Workload {
	t.Helper()
	var out []sim.Workload
	for _, p := range workloads.TrainingSet() {
		out = append(out, p)
	}
	return out
}

func designTestController(t *testing.T, threeInput bool) (*MIMOController, *DesignReport) {
	t.Helper()
	ctrl, rep, err := DesignMIMO(DesignSpec{
		ThreeInput:   threeInput,
		Training:     trainingWorkloads(t),
		Validation:   []sim.Workload{mustWorkload(t, "h264ref"), mustWorkload(t, "tonto")},
		EpochsPerApp: 2000,
		Seed:         5,
	})
	if err != nil {
		t.Fatalf("DesignMIMO: %v (report %+v)", err, rep)
	}
	return ctrl, rep
}

func TestDesignMIMOProducesCertifiedController(t *testing.T) {
	ctrl, rep := designTestController(t, false)
	if ctrl.threeInput {
		t.Fatal("expected 2-input controller")
	}
	if rep.Model.SS.Order() != 4 {
		t.Fatalf("model dimension %d, want 4", rep.Model.SS.Order())
	}
	if !rep.RSA.NominallyStable {
		t.Fatal("design not nominally stable")
	}
	if len(rep.ValidationErr) != 2 {
		t.Fatalf("validation errors %v", rep.ValidationErr)
	}
	for i, e := range rep.ValidationErr {
		if e <= 0 || e > 0.6 {
			t.Fatalf("validation error %d = %v implausible", i, e)
		}
	}
	if len(rep.TrainingFit) != 2 {
		t.Fatalf("training fit %v", rep.TrainingFit)
	}
}

func TestMIMOTracksFeasibleTargets(t *testing.T) {
	ctrl, _ := designTestController(t, false)
	proc, err := sim.NewProcessor(mustWorkload(t, "namd"), sim.DefaultProcessorOptions(), 21)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetTargets(DefaultIPSTarget, DefaultPowerTarget)
	tel := proc.Step()
	nEpochs := 3000
	var sumIPS, sumP float64
	count := 0
	for k := 0; k < nEpochs; k++ {
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		tel = proc.Step()
		if k >= nEpochs-500 {
			sumIPS += tel.TrueIPS
			sumP += tel.TruePowerW
			count++
		}
	}
	avgIPS := sumIPS / float64(count)
	avgP := sumP / float64(count)
	// Power carries the 1000x weight: its error must be small. IPS is
	// allowed a looser band (paper: 7% average on responsive apps).
	if e := math.Abs(avgP-DefaultPowerTarget) / DefaultPowerTarget; e > 0.10 {
		t.Fatalf("power error %.1f%% (avg %.3f W)", e*100, avgP)
	}
	if e := math.Abs(avgIPS-DefaultIPSTarget) / DefaultIPSTarget; e > 0.25 {
		t.Fatalf("IPS error %.1f%% (avg %.3f BIPS)", e*100, avgIPS)
	}
}

func TestMIMOControllerInterface(t *testing.T) {
	ctrl, _ := designTestController(t, false)
	var _ ArchController = ctrl
	ctrl.SetTargets(2.0, 1.5)
	ips, p := ctrl.Targets()
	if ips != 2.0 || p != 1.5 {
		t.Fatalf("targets %v %v", ips, p)
	}
	ctrl.Reset()
	ips, p = ctrl.Targets()
	if ips != 2.0 || p != 1.5 {
		t.Fatal("Reset must preserve targets")
	}
	if ctrl.Name() != "MIMO" {
		t.Fatal("name")
	}
	if lq, off := ctrl.CurrentDesign(); lq == nil || off.U0 == nil {
		t.Fatal("accessors")
	}
}

// idealTracker is a fake base controller whose plant instantly realizes
// the requested targets; used to unit-test the optimizer state machine.
type idealTracker struct {
	ips, power float64
	resets     int
}

func (f *idealTracker) Name() string                  { return "ideal" }
func (f *idealTracker) SetTargets(i, p float64)       { f.ips, f.power = i, p }
func (f *idealTracker) Targets() (float64, float64)   { return f.ips, f.power }
func (f *idealTracker) Step(sim.Telemetry) sim.Config { return sim.BaselineConfig() }
func (f *idealTracker) Reset()                        { f.resets++ }

func (f *idealTracker) telemetry(phase int) sim.Telemetry {
	return sim.Telemetry{IPS: f.ips, PowerW: f.power, PhaseID: phase}
}

// searchEpisodeEpochs bounds one full search episode at Table III's
// parameters: the midrange measurement and every trial, each settled
// and measured.
const searchEpisodeEpochs = (DefaultOptimizerMaxTries + 1) * (DefaultOptimizerSettleEpochs + DefaultOptimizerMeasureEpochs)

// stepToHold steps opt on tel until its search episode ends, failing
// when it has not ended within one episode's epochs.
func stepToHold(t *testing.T, opt *Optimizer, tel func() sim.Telemetry) {
	t.Helper()
	for k := 0; opt.state != optHold; k++ {
		if k > searchEpisodeEpochs {
			t.Fatalf("search still in state %v after %d epochs", opt.state, k)
		}
		opt.Step(tel())
	}
}

func TestOptimizerClimbsIdealMetric(t *testing.T) {
	base := &idealTracker{ips: 2, power: 2}
	opt, err := NewOptimizer(base, OptimizerConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With ideal tracking, "Up" multiplies IPS²/P by 1.12²/1.08 > 1, so
	// every Up move is accepted and the held IPS target is the start
	// times 1.12^DefaultOptimizerMaxTries.
	stepToHold(t, opt, func() sim.Telemetry { return base.telemetry(0) })
	ips, power := base.Targets()
	if want := 2 * math.Pow(1.12, DefaultOptimizerMaxTries); math.Abs(ips-want) > 1e-9*want {
		t.Fatalf("held IPS target %v, want %v (every Up accepted)", ips, want)
	}
	m0 := math.Pow(2, 2) / 2
	m1 := math.Pow(ips, 2) / power
	if m1 <= m0 {
		t.Fatalf("metric did not improve: %v -> %v", m0, m1)
	}
}

func TestOptimizerReversesOnWorseMetric(t *testing.T) {
	// A tracker whose power explodes with IPS beyond 2.2, making Up
	// moves unprofitable: the optimizer must go Down instead.
	base := &idealTracker{ips: 2, power: 2}
	opt, err := NewOptimizer(base, OptimizerConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Distort realized outputs: power grows with the fourth power of the
	// requested IPS, so IPS/P falls when pushing up.
	stepToHold(t, opt, func() sim.Telemetry {
		return sim.Telemetry{IPS: base.ips, PowerW: base.power * (1 + math.Pow(base.ips/2, 4)), PhaseID: 0}
	})
	ips, _ := base.Targets()
	if ips >= 2.2 {
		t.Fatalf("optimizer kept pushing up (IPS target %v) despite worse metric", ips)
	}
}

func TestOptimizerRestartsOnPhaseChange(t *testing.T) {
	base := &idealTracker{ips: 2, power: 2}
	opt, err := NewOptimizer(base, OptimizerConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	stepToHold(t, opt, func() sim.Telemetry { return base.telemetry(0) })
	resets := base.resets
	opt.Step(base.telemetry(1)) // phase change
	if opt.state != optInit {
		t.Fatal("phase change did not restart the search")
	}
	if base.resets <= resets {
		t.Fatal("base controller not reset on new search")
	}
}

func TestOptimizerValidation(t *testing.T) {
	if _, err := NewOptimizer(nil, OptimizerConfig{K: 2}); err == nil {
		t.Fatal("expected nil-base error")
	}
	if _, err := NewOptimizer(&idealTracker{}, OptimizerConfig{K: 0}); err == nil {
		t.Fatal("expected K error")
	}
	opt, err := NewOptimizer(&idealTracker{}, OptimizerConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if opt.k != 3 || opt.Name() != "ideal+opt" {
		t.Fatal("accessors")
	}
}

func TestBatteryScheduler(t *testing.T) {
	b, err := NewBatteryScheduler(BatteryScheduleConfig{
		InitialIPS: 2.5, InitialPower: 2.0, TotalEnergyJ: 1.0,
		ChangeEveryEpochs: 100, MinFraction: 0.3, Gamma: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	prevIPS := 2.5
	sawChange := false
	// Drain 2 W × 50 µs per epoch = 0.1 mJ/epoch → 10000 epochs total.
	for k := 0; k < 5000; k++ {
		ips, power, changed := b.Step(sim.Telemetry{EnergyJ: 2.0 * sim.EpochSeconds})
		if changed {
			sawChange = true
			if ips > prevIPS {
				t.Fatalf("IPS target rose while battery drained: %v -> %v", prevIPS, ips)
			}
			prevIPS = ips
		}
		if power <= 0 || ips <= 0 {
			t.Fatal("targets must stay positive")
		}
	}
	if !sawChange {
		t.Fatal("no reference changes over half the battery")
	}
	if b.Remaining() <= 0 || b.Remaining() >= 1 {
		t.Fatalf("remaining %v", b.Remaining())
	}
	// Fully drained: fraction floors at MinFraction.
	for k := 0; k < 10000; k++ {
		b.Step(sim.Telemetry{EnergyJ: 2.0 * sim.EpochSeconds})
	}
	if b.Remaining() != 0 {
		t.Fatalf("remaining %v after over-drain", b.Remaining())
	}
	if f := b.TargetFraction(); math.Abs(f-0.3) > 1e-12 {
		t.Fatalf("floor fraction %v", f)
	}
	if _, err := NewBatteryScheduler(BatteryScheduleConfig{}); err == nil {
		t.Fatal("expected validation error")
	}
}
