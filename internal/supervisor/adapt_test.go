package supervisor

import (
	"math/rand"
	"testing"

	"mimoctl/internal/adapt"
	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/lqg"
	"mimoctl/internal/mat"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
	"mimoctl/internal/testkit"
)

// quietInner is an ArchController whose Step performs no allocation, for
// hot-path budget tests (fakeInner records the telemetry it sees, which
// allocates). Its innovations cycle through a precomputed ring of small
// white noise, well inside the model-health guardband.
type quietInner struct {
	cfg    sim.Config
	innovs [][]float64
	idx    int
}

func newQuietInner(seed int64) *quietInner {
	rng := rand.New(rand.NewSource(seed))
	innovs := make([][]float64, 509)
	for i := range innovs {
		innovs[i] = []float64{0.01 * rng.NormFloat64(), 0.01 * rng.NormFloat64()}
	}
	return &quietInner{cfg: sim.MidrangeConfig(), innovs: innovs}
}

func (q *quietInner) Name() string                  { return "Quiet" }
func (q *quietInner) SetTargets(ips, power float64) {}
func (q *quietInner) Targets() (float64, float64) {
	return core.DefaultIPSTarget, core.DefaultPowerTarget
}
func (q *quietInner) Reset() {}
func (q *quietInner) Step(t sim.Telemetry) sim.Config {
	q.idx++
	if q.idx == len(q.innovs) {
		q.idx = 0
	}
	return q.cfg
}
func (q *quietInner) LastInnovation() []float64 { return q.innovs[q.idx] }

// adoptSink implements adapt.DesignTarget without a real controller.
type adoptSink struct{ adopted int }

func (a *adoptSink) AdoptDesign(*lqg.Controller, sysid.Offsets) error {
	a.adopted++
	return nil
}

// adaptModel realizes a small 2x2 ARX model for adapter construction.
func adaptModel(t *testing.T) *sysid.Model {
	t.Helper()
	a1 := testkit.FromRows([][]float64{{0.5, 0.05}, {0.02, 0.45}})
	b1 := testkit.FromRows([][]float64{{0.8, 0.05}, {0.3, 0.1}})
	v := testkit.FromRows([][]float64{{1e-4, 0}, {0, 1e-4}})
	off := sysid.Offsets{U0: []float64{1.2, 6}, Y0: []float64{2.5, 2.0}}
	m, err := sysid.ModelFromBlocks([]*mat.Matrix{a1}, []*mat.Matrix{b1}, nil, off, v, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestAdapter(t *testing.T, mon *health.Monitor, seed int64) *adapt.Adapter {
	t.Helper()
	ad, err := adapt.New(adapt.Options{
		Model: adaptModel(t), Target: &adoptSink{}, Monitor: mon, Seed: seed,
		IPSGuardband: core.DefaultIPSGuardband, PowerGuardband: core.DefaultPowerGuardband,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

func TestAdaptiveNameAndAccessor(t *testing.T) {
	ad := newTestAdapter(t, nil, 1)
	sup := New(newFakeInner(), Options{Adapter: ad})
	if got := sup.Name(); got != "Adaptive(Fake)" {
		t.Fatalf("Name() = %q, want Adaptive(Fake)", got)
	}
	if sup.Adapter() != ad {
		t.Fatal("Adapter() accessor lost the adapter")
	}
	if got := New(newFakeInner(), Options{}).Name(); got != "Supervised(Fake)" {
		t.Fatalf("Name() without adapter = %q", got)
	}
}

// windUpEpochs is a healthy stretch of constant telemetry long enough
// to wind the adapter's estimator covariance past its excitation
// threshold, so the next episode starts with a dither round.
const windUpEpochs = 1000

// TestModelFallbackTriggersAdapter: a fallback caused by model-shaped
// evidence (innovation alarm on live sensors) must hand the adapter a
// drift trigger, and the adaptation loop must keep running — and dither
// — while the supervisor sits pinned in fallback.
func TestModelFallbackTriggersAdapter(t *testing.T) {
	inner := newFakeInner()
	ad := newTestAdapter(t, nil, 2)
	sup := New(inner, Options{Adapter: ad})
	k := 0
	for ; k < windUpEpochs; k++ {
		sup.Step(goodTel(k))
	}
	inner.innov = []float64{5, 5} // sustained 2x-target model error

	sawExcite := false
	for ; k < 2*windUpEpochs && !sawExcite; k++ {
		cfg := sup.Step(goodTel(k))
		if sup.Mode() == ModeFallback && cfg != sup.SafeConfig() {
			sawExcite = true // dither moved the pinned configuration
		}
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("innovation alarm never tripped the fallback")
	}
	if h := sup.Health(); h.Fallbacks != 1 || h.InnovationAlarms != fallbackAfter {
		t.Fatalf("health %+v, want 1 fallback after %d innovation alarms", h, fallbackAfter)
	}
	if n := ad.Stats().Triggers; n != 1 {
		t.Fatalf("model-shaped fallback started %d adaptation episodes, want 1", n)
	}
	if !sawExcite {
		t.Fatal("adapter never dithered around the pinned safe configuration")
	}
}

// TestDeadSensorFallbackDoesNotTriggerAdapter: a dead channel is an
// instrumentation failure, not a modeling failure — re-identifying from
// a plant we cannot observe would be garbage-in.
func TestDeadSensorFallbackDoesNotTriggerAdapter(t *testing.T) {
	inner := newFakeInner()
	ad := newTestAdapter(t, nil, 3)
	sup := New(inner, Options{Adapter: ad})
	sup.Step(goodTel(0))
	for k := 1; k < 3*(maxStaleEpochs+fallbackAfter); k++ {
		dead := goodTel(k)
		dead.PowerW = 0 // hard dropout every epoch
		sup.Step(dead)
	}
	if h := sup.Health(); sup.Mode() != ModeFallback || h.Fallbacks != 1 || h.DeadSensorEpochs != fallbackAfter {
		t.Fatalf("mode %v health %+v, want one dead-sensor fallback", sup.Mode(), h)
	}
	if n := ad.Stats().Triggers; n != 0 {
		t.Fatalf("dead-sensor fallback triggered %d adaptation episodes, want 0", n)
	}
}

// TestAdaptationIdleStepZeroAlloc pins the DESIGN.md §7 budget with the
// full adaptive stack attached: supervisor + model-health monitor +
// idle adapter must still cost zero allocations per engaged epoch.
func TestAdaptationIdleStepZeroAlloc(t *testing.T) {
	q := newQuietInner(44)
	mon := health.NewMonitor()
	ad := newTestAdapter(t, mon, 4)
	sup := New(q, Options{ModelHealth: mon, Adapter: ad})
	tel := goodTel(0)
	// Past the grace period, the alarm path runs every epoch.
	for k := 0; k < graceEpochs+64; k++ {
		sup.Step(tel)
	}
	allocs := testing.AllocsPerRun(200, func() {
		sup.Step(tel)
	})
	if allocs != 0 {
		t.Fatalf("adaptation-idle Supervised.Step allocates %v times per epoch, want 0", allocs)
	}
	if ad.State() != adapt.StateNominal {
		t.Fatalf("adapter left nominal during the idle budget run: %v", ad.State())
	}
	if sup.Mode() != ModeEngaged {
		t.Fatalf("supervisor left engaged during the idle budget run: %v", sup.Mode())
	}
}

// TestSwapFlagsReachRecorder: an episode started by a model fallback
// under an attached flight recorder must leave FlagExcitation evidence
// in the records: one flagged record per dithered epoch.
func TestSwapFlagsReachRecorder(t *testing.T) {
	inner := newFakeInner()
	ad := newTestAdapter(t, nil, 5)
	sup := New(inner, Options{Adapter: ad})
	rec := flightrec.New(4096)
	sup.SetFlightRecorder(rec)
	k := 0
	for ; k < windUpEpochs; k++ {
		sup.Step(goodTel(k))
	}
	ad.NoteModelFallback()
	for ; k < 2*windUpEpochs; k++ {
		sup.Step(goodTel(k))
	}
	st := ad.Stats()
	if st.Triggers != 1 || st.ExciteEpochs == 0 {
		t.Fatalf("triggered episode did not run: %+v", st)
	}
	flagged := 0
	for _, r := range rec.Snapshot() {
		if r.Flags&obs.FlagExcitation != 0 {
			flagged++
		}
	}
	if flagged != st.ExciteEpochs {
		t.Fatalf("%d flight records carry FlagExcitation, want one per dithered epoch (%d)", flagged, st.ExciteEpochs)
	}
}
