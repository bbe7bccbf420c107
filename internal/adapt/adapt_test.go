package adapt

import (
	"math"
	"math/rand"
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
// pole moves and both outputs read ~5-6% low. The gains are chosen so
// the drifted loop's fixed point for targets (2.6, 2.1) sits exactly on
// the actuator grid (1.4 GHz, 6 ways): with the drifted DC gain the
// internal state there is x* = (0.270, 0.202), and g = target/(y0+x*).
// An off-grid fixed point would leave a quantization limit cycle that
// no amount of adaptation can remove, which is not what this test
// measures.
func (p *driftPlant) drift() {
	p.a1.Set(0, 0, 0.60)
	p.g = [2]float64{2.6 / 2.770, 2.1 / 2.202}
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

// TestAdapterRecoversFromDrift is the end-to-end contract: a supervisable
// control loop whose plant drifts must trigger, excite, re-identify,
// verify at inflated guardbands, hot-swap, and end up tracking again.
func TestAdapterRecoversFromDrift(t *testing.T) {
	p := newDriftPlant(21)
	model, mimo := identifyAndDesign(t, p, 22)
	mimo.SetTargets(2.6, 2.1)

	mon := health.NewMonitor(health.Options{
		Window: 128, EvalEvery: 16,
		ConsumptionAlpha: 0.05,
		ConsumptionWarn:  0.02, ConsumptionFail: 0.03,
		// Whiteness verdicts are disabled: quantization limit cycles
		// color the innovations even on a healthy loop, and this test
		// pins the trigger on guardband consumption alone.
		WhitenessWarn: 1e-300, WhitenessFail: 1e-301,
	})
	ad, err := New(Options{
		Model: model, Target: mimo, Monitor: mon, Seed: 23,
		FailStreak: 48, ExciteEpochs: 600, DitherHold: 4,
		ExcitationGood: 100, SettleEpochs: 200, CooldownEpochs: 800,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		innov     [2]float64
		sawExcite bool
		sawSwap   bool
	)
	trackErr := func(tel sim.Telemetry) float64 {
		return math.Abs(tel.IPS-2.6)/2.6 + math.Abs(tel.PowerW-2.1)/2.1
	}
	tel := p.step(sim.Config{FreqIdx: 7, CacheIdx: 1, ROBIdx: 2})
	run := func(epochs, warmup int) (meanTailErr float64) {
		tail := epochs / 4
		var sum float64
		var cnt int
		for k := 0; k < epochs; k++ {
			cfg := mimo.Step(tel)
			if k >= warmup {
				in := mimo.LastInnovationInto(innov[:0])
				mon.Observe(in[0], in[1])
			}
			v := ad.Advance(tel, cfg, true)
			if v.Flags&obs.FlagExcitation != 0 {
				sawExcite = true
			}
			if v.Swapped {
				sawSwap = true
			}
			tel = p.step(v.Cfg)
			if k >= epochs-tail {
				sum += trackErr(tel)
				cnt++
			}
		}
		return sum / float64(cnt)
	}

	// Nominal phase: loop settles on the identified model, adapter stays
	// dormant. The monitor only starts observing after the reference
	// transient so its EMA reflects steady state.
	preErr := run(2000, 400)
	if st := ad.Stats(); st.Triggers != 0 {
		t.Fatalf("adapter triggered %d times on a healthy plant", st.Triggers)
	}
	if preErr > 0.10 {
		t.Fatalf("nominal tracking error %.3f, want a settled loop", preErr)
	}

	// Drift, then give the adapter room to trigger, excite, redesign,
	// verify, swap, and settle.
	p.drift()
	postErr := run(12000, 0)

	st := ad.Stats()
	t.Logf("pre %.4f post %.4f stats %+v lastErr %v", preErr, postErr, st, ad.lastErr)
	if st.Triggers == 0 {
		t.Fatal("drift never triggered an adaptation episode")
	}
	if !sawExcite {
		t.Fatal("no epoch carried FlagExcitation")
	}
	if st.Swaps == 0 {
		t.Fatalf("no accepted hot swap (lastErr %v)", ad.lastErr)
	}
	if !sawSwap {
		t.Fatal("swap happened but no Verdict reported Swapped")
	}
	if st.LastMargin <= 1 {
		t.Fatalf("accepted swap with small-gain margin %.3f, want > 1", st.LastMargin)
	}
	if ad.State() != StateNominal {
		t.Fatalf("adapter ended in state %v, want nominal", ad.State())
	}
	// The recovered loop must track again: within 2x the nominal error
	// (plus a small quantization floor).
	if postErr > 2*preErr+0.05 {
		t.Fatalf("post-swap tracking error %.3f vs nominal %.3f: did not recover", postErr, preErr)
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
		ExciteEpochs: 50, ExcitationGood: 1e-9, // always excite
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.Telemetry{IPS: 2.5, PowerW: 2.0, Config: sim.MidrangeConfig()}

	// Without a monitor nothing triggers on its own.
	for i := 0; i < 500; i++ {
		ad.Advance(tel, tel.Config, true)
	}
	if ad.State() != StateNominal || ad.Stats().Triggers != 0 {
		t.Fatalf("untriggered adapter moved: state %v stats %+v", ad.State(), ad.Stats())
	}

	// A model fallback starts an episode; the tiny ExcitationGood forces
	// the dither round, whose flags and config perturbation must show up.
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
	mon := health.NewMonitor(health.Options{})
	ad, err := New(Options{Model: m, Target: &stubTarget{}, Monitor: mon, Seed: 42})
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
