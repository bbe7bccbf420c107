package supervisor

import (
	"errors"
	"math"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
)

// Mode returns the current operating mode.
func (s *Supervised) Mode() Mode { return s.st.mode }

// SafeConfig returns the fallback configuration: the static Baseline,
// sim.BaselineConfig.
func (s *Supervised) SafeConfig() sim.Config { return sim.BaselineConfig() }

// fakeInner is a scriptable ArchController for deterministic unit tests.
type fakeInner struct {
	cfg    sim.Config
	innov  []float64
	ips    float64
	power  float64
	steps  int
	resets int
	seen   []sim.Telemetry
}

func newFakeInner() *fakeInner {
	return &fakeInner{cfg: sim.MidrangeConfig(), ips: core.DefaultIPSTarget, power: core.DefaultPowerTarget}
}

func (f *fakeInner) Name() string                  { return "Fake" }
func (f *fakeInner) SetTargets(ips, power float64) { f.ips, f.power = ips, power }
func (f *fakeInner) Targets() (float64, float64)   { return f.ips, f.power }
func (f *fakeInner) Reset()                        { f.resets++ }
func (f *fakeInner) Step(t sim.Telemetry) sim.Config {
	f.steps++
	f.seen = append(f.seen, t)
	return f.cfg
}
func (f *fakeInner) LastInnovation() []float64 { return f.innov }

// goodTel builds a healthy on-target telemetry sample.
func goodTel(epoch int) sim.Telemetry {
	return sim.Telemetry{
		Epoch: epoch, IPS: core.DefaultIPSTarget, PowerW: core.DefaultPowerTarget,
		TrueIPS: core.DefaultIPSTarget, TruePowerW: core.DefaultPowerTarget,
		L1MPKI: 10, L2MPKI: 3, Config: sim.MidrangeConfig(),
	}
}

func TestSanitizationSubstitutesLastGood(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	// Two clean epochs establish the last-good readings.
	sup.Step(goodTel(0))
	good := goodTel(1)
	good.IPS, good.PowerW = 2.2, 1.9
	sup.Step(good)

	bad := goodTel(2)
	bad.IPS = math.NaN()
	bad.PowerW = math.Inf(1)
	bad.L2MPKI = math.NaN()
	sup.Step(bad)

	last := inner.seen[len(inner.seen)-1]
	if last.IPS != 2.2 || last.PowerW != 1.9 {
		t.Fatalf("inner saw %v/%v, want last-good 2.2/1.9", last.IPS, last.PowerW)
	}
	if math.IsNaN(last.L2MPKI) {
		t.Fatal("NaN L2MPKI reached the inner controller")
	}
	h := sup.Health()
	if h.SanitizedIPS != 1 || h.SanitizedPower != 1 {
		t.Fatalf("sanitized counters %d/%d, want 1/1", h.SanitizedIPS, h.SanitizedPower)
	}

	// Out-of-physical-range readings are rejected too: a 10x power
	// spike and a hard-zero dropout.
	spike := goodTel(3)
	spike.PowerW = 20 * core.DefaultPowerTarget
	sup.Step(spike)
	drop := goodTel(4)
	drop.IPS, drop.PowerW = 0, 0
	sup.Step(drop)
	for _, tel := range inner.seen[3:] {
		if tel.PowerW < 0.02 || tel.PowerW > 12 || tel.IPS < 0.01 {
			t.Fatalf("implausible reading reached inner: %+v", tel)
		}
	}
	if sup.Health().SanitizedPower != 3 { // inf, spike, dropout
		t.Fatalf("sanitized power %d, want 3", sup.Health().SanitizedPower)
	}
}

func TestSanitizationBeforeFirstGoodUsesTargets(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	bad := goodTel(0)
	bad.IPS, bad.PowerW = math.NaN(), math.NaN()
	sup.Step(bad)
	got := inner.seen[0]
	if got.IPS != core.DefaultIPSTarget || got.PowerW != core.DefaultPowerTarget {
		t.Fatalf("pre-good substitution %v/%v, want targets", got.IPS, got.PowerW)
	}
}

func TestDeadSensorFallsBackAndReengagesWithHysteresis(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	sup.Step(goodTel(0)) // establish last-good

	// Dead power meter: hard zero every epoch.
	k := 1
	for ; sup.Mode() == ModeEngaged && k < 500; k++ {
		bad := goodTel(k)
		bad.PowerW = 0
		cfg := sup.Step(bad)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("illegal config during fault: %v", err)
		}
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("never fell back with a dead power meter")
	}
	// The channel is declared dead once it has coasted past
	// maxStaleEpochs, and the loop gives up fallbackAfter dead epochs
	// later: not instantly, and not late.
	if want := maxStaleEpochs + fallbackAfter + 1; k != want {
		t.Fatalf("fell back after %d epochs, want %d", k, want)
	}
	if h := sup.Health(); h.Fallbacks != 1 || h.DeadSensorEpochs != fallbackAfter {
		t.Fatalf("health %+v, want 1 fallback after %d dead-sensor epochs", h, fallbackAfter)
	}

	// While the sensor stays dead the safe config is pinned.
	for i := 0; i < 40; i++ {
		bad := goodTel(k + i)
		bad.PowerW = 0
		if cfg := sup.Step(bad); cfg != sup.SafeConfig() {
			t.Fatalf("fallback issued %v, want safe %v", cfg, sup.SafeConfig())
		}
	}

	// Sensor heals: hysteresis demands reengageAfter consecutive healthy
	// epochs before the inner controller returns.
	resets := inner.resets
	healthy := 0
	for i := 0; i < 2*reengageAfter && sup.Mode() == ModeFallback; i++ {
		sup.Step(goodTel(1000 + i))
		healthy++
	}
	if sup.Mode() != ModeEngaged {
		t.Fatal("never re-engaged after sensor healed")
	}
	if healthy != reengageAfter {
		t.Fatalf("re-engaged after %d healthy epochs, want %d", healthy, reengageAfter)
	}
	if inner.resets != resets+1 {
		t.Fatalf("inner resets %d, want %d (fresh state on re-engage)", inner.resets, resets+1)
	}
	if sup.Health().Reengagements != 1 {
		t.Fatalf("reengagements %d", sup.Health().Reengagements)
	}
}

func TestHysteresisBlocksFlappingSensor(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	sup.Step(goodTel(0))
	// Kill the sensor long enough to fall back.
	for k := 1; sup.Mode() == ModeEngaged && k < 500; k++ {
		bad := goodTel(k)
		bad.PowerW = math.NaN()
		sup.Step(bad)
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("no fallback")
	}
	// A sensor that flaps (good one epoch short of reengageAfter, bad
	// 5, repeat) never accumulates reengageAfter consecutive healthy
	// epochs: stay in fallback.
	const cycle = reengageAfter - 1 + 5
	for c := 0; c < 10; c++ {
		for i := 0; i < reengageAfter-1; i++ {
			sup.Step(goodTel(1000 + c*cycle + i))
		}
		for i := 0; i < 5; i++ {
			bad := goodTel(1000 + c*cycle + reengageAfter - 1 + i)
			bad.PowerW = math.NaN()
			sup.Step(bad)
		}
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("flapping sensor re-engaged the controller")
	}
	if sup.Health().Reengagements != 0 {
		t.Fatalf("reengagements %d, want 0", sup.Health().Reengagements)
	}
	// Once the sensor holds for reengageAfter epochs, the loop returns.
	for i := 0; i < reengageAfter; i++ {
		sup.Step(goodTel(1000 + 10*cycle + i))
	}
	if sup.Mode() != ModeEngaged || sup.Health().Reengagements != 1 {
		t.Fatalf("mode %v after a steady sensor, %d reengagements, want engaged and 1", sup.Mode(), sup.Health().Reengagements)
	}
}

func TestDivergenceDetectionTripsFallback(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	// Plausible telemetry, but power pinned at 3x the target: a sick
	// loop the sanitizer alone cannot see.
	k := 0
	for ; sup.Mode() == ModeEngaged && k < 2000; k++ {
		bad := goodTel(k)
		bad.PowerW = 3 * core.DefaultPowerTarget
		sup.Step(bad)
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("divergence never tripped the fallback")
	}
	// The alarm waits out the grace period, and fallbackAfter alarm
	// epochs then trip the fallback.
	if k <= graceEpochs+fallbackAfter {
		t.Fatalf("fell back after %d epochs, inside the %d-epoch grace period", k, graceEpochs)
	}
	if h := sup.Health(); h.Fallbacks != 1 || h.DivergenceAlarms != fallbackAfter || h.InnovationAlarms != 0 {
		t.Fatalf("health %+v, want 1 fallback after %d divergence alarms", h, fallbackAfter)
	}
	// And healthy on-target telemetry must never trip it.
	inner2 := newFakeInner()
	sup2 := New(inner2, Options{})
	for k := 0; k < 2000; k++ {
		sup2.Step(goodTel(k))
	}
	if sup2.Mode() != ModeEngaged || sup2.Health().DivergenceAlarms != 0 {
		t.Fatalf("false divergence on healthy telemetry: %+v", sup2.Health())
	}
}

func TestInnovationMonitorTripsFallback(t *testing.T) {
	inner := newFakeInner()
	inner.innov = []float64{5, 5} // model errs by 2x the targets, sustained
	sup := New(inner, Options{})
	k := 0
	for ; sup.Mode() == ModeEngaged && k < 2000; k++ {
		sup.Step(goodTel(k))
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("innovation monitor never tripped the fallback")
	}
	if k <= graceEpochs+fallbackAfter {
		t.Fatalf("fell back after %d epochs, inside the %d-epoch grace period", k, graceEpochs)
	}
	if h := sup.Health(); h.Fallbacks != 1 || h.InnovationAlarms != fallbackAfter || h.DivergenceAlarms != 0 {
		t.Fatalf("health %+v, want 1 fallback after %d innovation alarms", h, fallbackAfter)
	}
}

func TestApplyRetryBackoffAndFallback(t *testing.T) {
	inner := newFakeInner()
	want := sim.Config{FreqIdx: 9, CacheIdx: 1, ROBIdx: 2}
	inner.cfg = want
	sup := New(inner, Options{})

	applyErr := errors.New("actuator wedged")
	tel := goodTel(0)
	retries, holds := 0, 0
	for k := 0; sup.Mode() == ModeEngaged && k < 100; k++ {
		cfg := sup.Step(tel)
		if cfg == want {
			retries++ // issued (or re-issued) the inner's request
		} else if cfg == tel.Config {
			holds++ // waiting out the backoff
		} else {
			t.Fatalf("unexpected config %v", cfg)
		}
		sup.ObserveApply(cfg, applyErr)
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("sustained actuator failure never forced the fallback")
	}
	// Every attempt failed: the request, a retry after a 1-epoch hold,
	// a retry after a 2-epoch hold — applyFallbackAfter failures.
	if retries != 3 || holds != 3 {
		t.Fatalf("retries %d holds %d: want 3 issues of the request interleaved with 3 backoff holds", retries, holds)
	}
	h := sup.Health()
	if h.ApplyFailures != applyFallbackAfter || h.ApplyRetries != 2 || h.Fallbacks != 1 {
		t.Fatalf("health %+v, want 1 fallback after %d failures and 2 retries", h, applyFallbackAfter)
	}

	// A single transient failure resets the streak: no fallback.
	inner2 := newFakeInner()
	inner2.cfg = want
	sup2 := New(inner2, Options{})
	for k := 0; k < 50; k++ {
		cfg := sup2.Step(goodTel(k))
		var err error
		if k == 10 {
			err = applyErr
		}
		sup2.ObserveApply(cfg, err)
	}
	if sup2.Mode() != ModeEngaged {
		t.Fatal("one transient apply failure must not force fallback")
	}
	if sup2.Health().ApplyFailures != 1 {
		t.Fatalf("apply failures %d, want 1", sup2.Health().ApplyFailures)
	}
}

func TestIllegalInnerConfigIsBlocked(t *testing.T) {
	inner := newFakeInner()
	inner.cfg = sim.Config{FreqIdx: 99, CacheIdx: 0, ROBIdx: 0}
	sup := New(inner, Options{})
	tel := goodTel(0)
	cfg := sup.Step(tel)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("supervisor passed an illegal config through: %v", err)
	}
	if cfg != tel.Config {
		t.Fatalf("got %v, want hold at plant config %v", cfg, tel.Config)
	}
	if sup.Health().IllegalConfigs != 1 {
		t.Fatalf("illegal configs %d", sup.Health().IllegalConfigs)
	}
}

func TestNonFiniteTargetsNeverReachInner(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	sup.SetTargets(3.0, 2.5)
	sup.SetTargets(math.NaN(), 2.0)
	sup.SetTargets(2.0, math.Inf(1))
	if ips, p := inner.Targets(); ips != 3.0 || p != 2.5 {
		t.Fatalf("inner targets %v/%v, want 3.0/2.5", ips, p)
	}
	if ips, p := sup.Targets(); ips != 3.0 || p != 2.5 {
		t.Fatalf("supervisor targets %v/%v, want 3.0/2.5", ips, p)
	}
}

func TestResetClearsEverything(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	sup.Step(goodTel(0))
	for k := 1; k < 2*(maxStaleEpochs+fallbackAfter); k++ {
		bad := goodTel(k)
		bad.PowerW = math.NaN()
		sup.Step(bad)
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("setup: no fallback")
	}
	sup.Reset()
	if sup.Mode() != ModeEngaged {
		t.Fatal("Reset did not re-engage")
	}
	if h := sup.Health(); h.Epochs != 0 || h.Fallbacks != 0 || h.SanitizedPower != 0 {
		t.Fatalf("Reset left counters %+v", h)
	}
}
