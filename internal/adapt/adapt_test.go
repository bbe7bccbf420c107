package adapt

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/health"
	"mimoctl/internal/lqg"
	"mimoctl/internal/mat"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
	"mimoctl/internal/testkit"
)

// driftPlant is a linear truth in knob coordinates with a multiplicative
// output-gain drift: internally x(t+1) = A1 x(t) + B1 (u(t)-u0) + w, and
// the telemetry reads g .* (y0 + x). A pure coefficient drift is
// invisible once the integral action settles (the fixed point stays at
// the operating point); a gain drift moves the fixed point and exercises
// exactly the intercept + offset-refit path the adapter implements.
type driftPlant struct {
	a1, b1 *mat.Matrix
	u0, y0 []float64
	g      [2]float64
	x      []float64
	rng    *rand.Rand
	noise  float64
	epoch  int
}

func newDriftPlant(seed int64) *driftPlant {
	// B1 engineered so the DC gain [[1.2,0.35],[1.0,0.06]] keeps the two
	// knobs well apart in direction: frequency moves power strongly,
	// cache ways move IPS much more than power. That keeps the post-drift
	// retarget inside the legal knob range.
	return &driftPlant{
		a1:    testkit.FromRows([][]float64{{0.55, 0.04}, {0.03, 0.5}}),
		b1:    testkit.FromRows([][]float64{{0.50, 0.155}, {0.464, 0.0195}}),
		u0:    []float64{1.2, 6},
		y0:    []float64{2.5, 2.0},
		g:     [2]float64{1, 1},
		x:     []float64{0, 0},
		rng:   rand.New(rand.NewSource(seed)),
		noise: 0.008,
	}
}

func (p *driftPlant) step(cfg sim.Config) sim.Telemetry {
	uDev := []float64{cfg.FreqGHz() - p.u0[0], float64(cfg.L2Ways()) - p.u0[1]}
	nx := testkit.VecAdd(testkit.MulVec(p.a1, p.x), testkit.MulVec(p.b1, uDev))
	for i := range nx {
		nx[i] += p.noise * p.rng.NormFloat64()
	}
	p.x = nx
	p.epoch++
	ips := p.g[0] * (p.y0[0] + p.x[0])
	pw := p.g[1] * (p.y0[1] + p.x[1])
	return sim.Telemetry{
		Epoch: p.epoch, IPS: ips, PowerW: pw,
		TrueIPS: ips, TruePowerW: pw, Config: cfg,
	}
}

// drift applies the plant change the adapter must recover from: an IPS
// pole moves and both outputs read ~16-18% low, far enough to exhaust
// the monitor's guardband budget. The gains are chosen so the drifted
// loop's fixed point for targets (2.6, 2.1) sits exactly on the
// actuator grid (1.7 GHz, 6 ways): with the drifted DC gain the
// internal state there is x* = (0.6755, 0.5045), and g = target/(y0+x*).
// An off-grid fixed point would leave a quantization limit cycle that
// no amount of adaptation can remove, which is not what these tests
// measure.
func (p *driftPlant) drift() {
	p.a1.Set(0, 0, 0.60)
	p.g = [2]float64{2.6 / 3.1755, 2.1 / 2.5045}
}

// identifyAndDesign runs the offline flow the way the design path does:
// random-walk excitation over legal configurations, batch ARX fit, LQG
// design with the repo's default weights.
func identifyAndDesign(t *testing.T, p *driftPlant, seed int64) (*sysid.Model, *core.MIMOController) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 3000
	u := mat.New(n, 2)
	y := mat.New(n, 2)
	cfg := sim.Config{FreqIdx: 7, CacheIdx: 1, ROBIdx: 2}
	tel := p.step(cfg)
	for k := 0; k < n; k++ {
		if k%6 == 0 {
			cfg = sim.Config{FreqIdx: 4 + rng.Intn(8), CacheIdx: rng.Intn(4), ROBIdx: 2}
		}
		copy(u.RowView(k), []float64{cfg.FreqGHz(), float64(cfg.L2Ways())})
		copy(y.RowView(k), []float64{tel.IPS, tel.PowerW})
		tel = p.step(cfg)
	}
	d, err := sysid.NewData(u, y, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sysid.FitARX(d, sysid.ARXOrders{NA: 2, NB: 2})
	if err != nil {
		t.Fatal(err)
	}
	lq, err := lqg.Design(model.SS,
		lqg.Weights{
			OutputWeights: []float64{core.DefaultIPSWeight, core.DefaultPowerWeight},
			InputWeights:  []float64{core.DefaultFreqWeight, core.DefaultCacheWeight},
		},
		lqg.Noise{W: model.W, V: model.V},
		lqg.Options{DeltaU: true, Integral: true})
	if err != nil {
		t.Fatal(err)
	}
	mimo, err := core.NewMIMOController(lq, model.Off, false)
	if err != nil {
		t.Fatal(err)
	}
	return model, mimo
}

// driftLoop is the closed loop the adapter tests run: the drift plant
// under the MIMO controller identified from it, tracking (2.6, 2.1),
// with the health monitor observing the controller's innovations and
// an adapter attached.
type driftLoop struct {
	p     *driftPlant
	mimo  *core.MIMOController
	mon   *health.Monitor
	ad    *Adapter
	tel   sim.Telemetry
	innov [2]float64
}

// newDriftLoop identifies and designs the loop and steps it through
// its 400-epoch reference transient with the monitor not yet
// observing, so the monitor's EMA reflects steady state. target wraps
// the controller as the adapter's DesignTarget (nil: the controller
// itself).
func newDriftLoop(t *testing.T, target func(*core.MIMOController) DesignTarget) *driftLoop {
	t.Helper()
	l := &driftLoop{p: newDriftPlant(21), mon: health.NewMonitor()}
	var model *sysid.Model
	model, l.mimo = identifyAndDesign(t, l.p, 22)
	l.mimo.SetTargets(2.6, 2.1)
	var tgt DesignTarget = l.mimo
	if target != nil {
		tgt = target(l.mimo)
	}
	var err error
	l.ad, err = New(Options{
		Model: model, Target: tgt, Monitor: l.mon, Seed: 23,
		IPSGuardband: core.DefaultIPSGuardband, PowerGuardband: core.DefaultPowerGuardband,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.tel = l.p.step(sim.Config{FreqIdx: 7, CacheIdx: 1, ROBIdx: 2})
	for k := 0; k < 400; k++ {
		l.tel = l.p.step(l.ad.Advance(l.tel, l.mimo.Step(l.tel), true).Cfg)
	}
	return l
}

// step runs one observed closed-loop epoch and returns the adapter's
// verdict.
func (l *driftLoop) step() Verdict {
	cfg := l.mimo.Step(l.tel)
	in := l.mimo.LastInnovationInto(l.innov[:0])
	l.mon.Observe(in[0], in[1])
	v := l.ad.Advance(l.tel, cfg, true)
	l.tel = l.p.step(v.Cfg)
	return v
}

// trackErr is the summed relative tracking error of one epoch.
func trackErr(tel sim.Telemetry) float64 {
	return math.Abs(tel.IPS-2.6)/2.6 + math.Abs(tel.PowerW-2.1)/2.1
}

// TestAdapterRecoversFromDrift is the end-to-end contract: a supervisable
// control loop whose plant drifts must trigger, excite, re-identify,
// verify at inflated guardbands, hot-swap, and end up tracking again.
func TestAdapterRecoversFromDrift(t *testing.T) {
	l := newDriftLoop(t, nil)
	var sawExcite, sawSwap bool
	run := func(epochs int) (meanTailErr float64) {
		tail := epochs / 4
		var sum float64
		for k := 0; k < epochs; k++ {
			v := l.step()
			if v.Flags&obs.FlagExcitation != 0 {
				sawExcite = true
			}
			if v.Swapped {
				sawSwap = true
			}
			if k >= epochs-tail {
				sum += trackErr(l.tel)
			}
		}
		return sum / float64(tail)
	}

	// Nominal phase: the loop settles on the identified model, and the
	// adapter stays dormant.
	preErr := run(1600)
	if st := l.ad.Stats(); st.Triggers != 0 {
		t.Fatalf("adapter triggered %d times on a healthy plant", st.Triggers)
	}
	if preErr > 0.10 {
		t.Fatalf("nominal tracking error %.3f, want a settled loop", preErr)
	}

	// Drift, then give the adapter room to trigger, excite, redesign,
	// verify, swap, and settle.
	l.p.drift()
	postErr := run(12000)

	st := l.ad.Stats()
	t.Logf("pre %.4f post %.4f stats %+v lastErr %v", preErr, postErr, st, l.ad.lastErr)
	if st.Triggers != 1 {
		t.Fatalf("drift triggered %d adaptation episodes, want 1", st.Triggers)
	}
	if !sawExcite || st.ExciteEpochs != exciteEpochs {
		t.Fatalf("excitation: flagged %v, %d dithered epochs, want %d", sawExcite, st.ExciteEpochs, exciteEpochs)
	}
	if st.Swaps != 1 || st.Reverts != 0 {
		t.Fatalf("%d swaps, %d reverts (lastErr %v), want one swap that survives probation", st.Swaps, st.Reverts, l.ad.lastErr)
	}
	if !sawSwap {
		t.Fatal("swap happened but no Verdict reported Swapped")
	}
	if st.LastMargin <= 1 {
		t.Fatalf("accepted swap with small-gain margin %.3f, want > 1", st.LastMargin)
	}
	if l.ad.State() != StateNominal {
		t.Fatalf("adapter ended in state %v, want nominal", l.ad.State())
	}
	// The recovered loop must track again: within 2x the nominal error
	// (plus a small quantization floor).
	if postErr > 2*preErr+0.05 {
		t.Fatalf("post-swap tracking error %.3f vs nominal %.3f: did not recover", postErr, preErr)
	}
}

// designBits is the controller's deployed design — its gains (the
// controller realization) and operating point — as bit patterns.
func designBits(t *testing.T, c *core.MIMOController) []uint64 {
	t.Helper()
	lq, off := c.CurrentDesign()
	ss, err := lq.AsStateSpace()
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint64
	for _, m := range []*mat.Matrix{ss.A, ss.B, ss.C, ss.D} {
		for _, v := range m.RawData() {
			bits = append(bits, math.Float64bits(v))
		}
	}
	for _, v := range append(append([]float64{}, off.U0...), off.Y0...) {
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// requireCooldown asserts that no episode starts for cooldownEpochs
// epochs after the one that ended the last, although a model fallback
// is latched throughout, and that the latched trigger starts one on
// the epoch the cooldown ends.
func requireCooldown(t *testing.T, l *driftLoop) {
	t.Helper()
	triggers := l.ad.Stats().Triggers
	l.ad.NoteModelFallback()
	for k := 1; k < cooldownEpochs; k++ {
		l.step()
		if n := l.ad.Stats().Triggers; n != triggers {
			t.Fatalf("episode started %d epochs into the %d-epoch cooldown", k, cooldownEpochs)
		}
	}
	l.step()
	if n := l.ad.Stats().Triggers; n != triggers+1 {
		t.Fatalf("latched trigger did not start an episode when the cooldown ended (%d triggers, want %d)", n, triggers+1)
	}
}

// TestAdapterProbationRevert: a swapped design that the closed loop
// judges worse inside its probation — the rebased monitor back at fail,
// or a model-shaped supervisor fallback — is undone. The pre-swap gains
// come back bit for bit, the monitor is rebased onto them, the epoch
// carries FlagAdaptRevert, one revert is counted, and the episode ends
// in the full cooldown.
func TestAdapterProbationRevert(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reject func(*driftLoop)
	}{
		{"monitor-fail", func(l *driftLoop) {
			for i := 0; i < 64; i++ { // several evaluation periods
				l.mon.Observe(10, 10) // far past the fail line
			}
			if l.mon.Level() != health.LevelFail {
				t.Fatalf("monitor at %v, want fail", l.mon.Level())
			}
		}},
		{"model-fallback", func(l *driftLoop) { l.ad.NoteModelFallback() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newDriftLoop(t, nil)
			for k := 0; k < 1600; k++ {
				l.step()
			}
			before := designBits(t, l.mimo)
			beforeLQ, _ := l.mimo.CurrentDesign()
			l.p.drift()
			for k := 0; !l.step().Swapped; k++ {
				if k > 4000 {
					t.Fatalf("no swap %d epochs after the drift: %+v (lastErr %v)", k, l.ad.Stats(), l.ad.lastErr)
				}
			}
			if slices.Equal(designBits(t, l.mimo), before) {
				t.Fatal("the swap installed the deployed design again")
			}
			// Part way into probation the swap still stands.
			for k := 0; k < probationEpochs/2; k++ {
				if v := l.step(); v.Reverted {
					t.Fatalf("reverted %d epochs into probation with nothing rejecting the swap", k)
				}
			}
			tc.reject(l)
			v := l.step()
			if !v.Reverted || v.Flags&obs.FlagAdaptRevert == 0 {
				t.Fatalf("verdict %+v, want a flagged revert", v)
			}
			if lq, _ := l.mimo.CurrentDesign(); lq != beforeLQ || !slices.Equal(designBits(t, l.mimo), before) {
				t.Fatal("revert did not restore the pre-swap design bit for bit")
			}
			if ips, power := l.mon.ObservedMismatch(); ips != 0 || power != 0 || l.mon.Level() != health.LevelOK {
				t.Fatalf("monitor not rebased: mismatch %v/%v level %v", ips, power, l.mon.Level())
			}
			if st := l.ad.Stats(); st.Swaps != 1 || st.Reverts != 1 || st.Triggers != 1 {
				t.Fatalf("stats %+v, want one trigger, one swap, one revert", st)
			}
			if l.ad.State() != StateNominal {
				t.Fatalf("state %v after the revert, want nominal", l.ad.State())
			}
			requireCooldown(t, l)
		})
	}
}

// rejectingTarget is the deployed controller with a target that
// refuses every design, so each candidate fails verification.
type rejectingTarget struct{ *core.MIMOController }

func (rejectingTarget) AdoptDesign(*lqg.Controller, sysid.Offsets) error {
	return errors.New("design refused")
}

// TestAdapterGivesUp: an episode whose maxAttempts candidates all fail
// verification counts one give-up, keeps the deployed design, and
// starts the same cooldown as a revert.
func TestAdapterGivesUp(t *testing.T) {
	l := newDriftLoop(t, func(c *core.MIMOController) DesignTarget { return rejectingTarget{c} })
	before := designBits(t, l.mimo)
	l.ad.NoteModelFallback()
	for k := 0; l.ad.Stats().GiveUps == 0; k++ {
		if k > maxAttempts*(exciteEpochs+3)+2 {
			t.Fatalf("no give-up after %d epochs: %+v", k, l.ad.Stats())
		}
		if v := l.step(); v.Swapped {
			t.Fatal("a refused design was swapped in")
		}
	}
	st := l.ad.Stats()
	if st.Triggers != 1 || st.Redesigns != maxAttempts || st.VerifyFailures != maxAttempts || st.GiveUps != 1 || st.Swaps != 0 {
		t.Fatalf("stats %+v, want one trigger, %d redesigns failing verification, one give-up", st, maxAttempts)
	}
	if l.ad.State() != StateNominal {
		t.Fatalf("state %v after giving up, want nominal", l.ad.State())
	}
	if !slices.Equal(designBits(t, l.mimo), before) {
		t.Fatal("giving up changed the deployed design")
	}
	requireCooldown(t, l)
}

// TestAdapterMonitorTriggerNeedsFullStreak: the monitor's fail verdict
// starts an episode only after triggerAfter consecutive fail epochs; an
// epoch off fail restarts the count.
func TestAdapterMonitorTriggerNeedsFullStreak(t *testing.T) {
	m, _, _ := fitSeedModel(t, 51)
	mon := health.NewMonitor()
	ad, err := New(Options{Model: m, Target: &stubTarget{}, Monitor: mon, Seed: 52,
		IPSGuardband: core.DefaultIPSGuardband, PowerGuardband: core.DefaultPowerGuardband})
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.Telemetry{IPS: 2.5, PowerW: 2.0, Config: sim.MidrangeConfig()}
	fail := func() {
		for i := 0; i < 64; i++ { // several evaluation periods
			mon.Observe(10, 10)
		}
		if mon.Level() != health.LevelFail {
			t.Fatalf("monitor at %v, want fail", mon.Level())
		}
	}
	fail()
	for k := 1; k < triggerAfter; k++ {
		ad.Advance(tel, tel.Config, true)
	}
	mon.Rebase(nil, nil) // one epoch off fail
	ad.Advance(tel, tel.Config, true)
	fail()
	for k := 1; k < triggerAfter; k++ {
		ad.Advance(tel, tel.Config, true)
	}
	if n := ad.Stats().Triggers; n != 0 {
		t.Fatalf("%d episodes after streaks of %d fail epochs, want 0", n, triggerAfter-1)
	}
	ad.Advance(tel, tel.Config, true)
	if n := ad.Stats().Triggers; n != 1 || ad.State() != StateDrifted {
		t.Fatalf("%d episodes, state %v after %d fail epochs, want 1, drifted", n, ad.State(), triggerAfter)
	}
}

// stubTarget accepts every design; it lets the state-machine tests run
// without a full controller.
type stubTarget struct{ adopted int }

func (s *stubTarget) AdoptDesign(*lqg.Controller, sysid.Offsets) error {
	s.adopted++
	return nil
}

// TestAdapterTriggerStartsEpisode: nothing triggers without a monitor,
// and a latched model fallback starts an episode whose exciting epochs
// carry FlagExcitation.
func TestAdapterTriggerStartsEpisode(t *testing.T) {
	m, _, _ := fitSeedModel(t, 31)
	tgt := &stubTarget{}
	ad, err := New(Options{
		Model: m, Target: tgt, Seed: 32,
		IPSGuardband: core.DefaultIPSGuardband, PowerGuardband: core.DefaultPowerGuardband,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.Telemetry{IPS: 2.5, PowerW: 2.0, Config: sim.MidrangeConfig()}

	// Without a monitor nothing triggers on its own. The constant
	// telemetry excites nothing, so the estimator's covariance winds up
	// past excitationGood.
	for i := 0; i < 1000; i++ {
		ad.Advance(tel, tel.Config, true)
	}
	if ad.State() != StateNominal || ad.Stats().Triggers != 0 {
		t.Fatalf("untriggered adapter moved: state %v stats %+v", ad.State(), ad.Stats())
	}
	if e := ad.est.excitation(); e <= excitationGood {
		t.Fatalf("estimator excitation metric %v after 1000 constant epochs, want > %v", e, excitationGood)
	}

	// A model fallback starts an episode; the poorly excited estimator
	// forces the dither round, whose flags must show up.
	ad.NoteModelFallback()
	ad.Advance(tel, tel.Config, true) // consume trigger -> Drifted
	ad.Advance(tel, tel.Config, true) // Drifted -> Exciting
	if ad.State() != StateExciting {
		t.Fatalf("state %v after triggered episode, want exciting", ad.State())
	}
	v := ad.Advance(tel, tel.Config, true)
	if v.Flags&obs.FlagExcitation == 0 {
		t.Fatal("exciting epoch carried no FlagExcitation")
	}
}

func TestAdapterNilAndIdleZeroAlloc(t *testing.T) {
	// A nil adapter is a no-op passthrough.
	var nilAd *Adapter
	tel := sim.Telemetry{IPS: 2.5, PowerW: 2.0, Config: sim.MidrangeConfig()}
	if v := nilAd.Advance(tel, tel.Config, true); v.Cfg != tel.Config || v.Flags != 0 || v.Swapped {
		t.Fatalf("nil adapter verdict %+v", v)
	}
	nilAd.NoteModelFallback()
	nilAd.NoteGap()

	// The idle (nominal) Advance is the per-epoch hot-path contribution;
	// it must not allocate (DESIGN.md §7).
	m, _, _ := fitSeedModel(t, 41)
	mon := health.NewMonitor()
	ad, err := New(Options{Model: m, Target: &stubTarget{}, Monitor: mon, Seed: 42,
		IPSGuardband: core.DefaultIPSGuardband, PowerGuardband: core.DefaultPowerGuardband})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ad.Advance(tel, tel.Config, true)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ad.Advance(tel, tel.Config, true)
	})
	if allocs != 0 {
		t.Fatalf("idle Advance allocates %v times per epoch, want 0", allocs)
	}
	if ad.State() != StateNominal {
		t.Fatalf("idle adapter left nominal: %v", ad.State())
	}
}

func TestNewRejectsIncompleteOptions(t *testing.T) {
	m, _, _ := fitSeedModel(t, 61)
	gb := func(o Options) Options {
		o.IPSGuardband, o.PowerGuardband = core.DefaultIPSGuardband, core.DefaultPowerGuardband
		return o
	}
	for name, o := range map[string]Options{
		"no model":      gb(Options{Target: &stubTarget{}}),
		"no target":     gb(Options{Model: m}),
		"no guardbands": {Model: m, Target: &stubTarget{}},
		"zero power":    {Model: m, Target: &stubTarget{}, IPSGuardband: core.DefaultIPSGuardband},
	} {
		if _, err := New(o); err == nil {
			t.Errorf("%s: New accepted %+v", name, o)
		}
	}
}
