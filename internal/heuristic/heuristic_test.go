package heuristic

import (
	"math"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

func tel(ips, power, l2 float64, cfg sim.Config) sim.Telemetry {
	return sim.Telemetry{IPS: ips, PowerW: power, L2MPKI: l2, Config: cfg}
}

// drive feeds n identical telemetry samples and returns the last config.
func drive(h core.ArchController, t sim.Telemetry, n int) sim.Config {
	var cfg sim.Config
	for i := 0; i < n; i++ {
		cfg = h.Step(t)
	}
	return cfg
}

func TestTrackerPowerOverBudgetLowersFrequency(t *testing.T) {
	h := NewTracker(Options{})
	h.SetTargets(2.5, 2.0)
	start := sim.MidrangeConfig()
	cfg := drive(h, tel(2.5, 2.6, 1, start), 20) // 30% power overshoot
	if cfg.FreqIdx >= start.FreqIdx {
		t.Fatalf("frequency not reduced: %v -> %v", start, cfg)
	}
}

func TestTrackerSlowComputeBoundRaisesFrequency(t *testing.T) {
	h := NewTracker(Options{})
	h.SetTargets(2.5, 2.0)
	start := sim.MidrangeConfig()
	cfg := drive(h, tel(1.5, 1.2, 1, start), 20) // slow, power headroom, low L2 misses
	if cfg.FreqIdx <= start.FreqIdx {
		t.Fatalf("frequency not raised: %v -> %v", start, cfg)
	}
}

func TestTrackerSlowMemoryBoundGrowsCache(t *testing.T) {
	h := NewTracker(Options{})
	h.SetTargets(2.5, 2.0)
	start := sim.MidrangeConfig()
	cfg := drive(h, tel(1.5, 1.2, 20, start), 20) // slow, headroom, memory bound
	if cfg.L2Ways() <= start.L2Ways() {
		t.Fatalf("cache not grown: %v -> %v", start, cfg)
	}
}

func TestTrackerDeadbandHolds(t *testing.T) {
	h := NewTracker(Options{})
	h.SetTargets(2.5, 2.0)
	start := sim.MidrangeConfig()
	cfg := drive(h, tel(2.5, 2.0, 1, start), 50) // exactly on target
	if cfg != start {
		t.Fatalf("moved inside deadband: %v -> %v", start, cfg)
	}
}

func TestTrackerRateLimit(t *testing.T) {
	h := NewTracker(Options{})
	h.SetTargets(2.5, 2.0)
	start := sim.MidrangeConfig()
	sample := tel(2.5, 3.0, 1, start) // over budget: every decision moves
	moves, last := 0, -decisionEveryEpochs
	prev := start
	for i := 0; i < 40; i++ {
		cfg := h.Step(sample)
		if cfg != prev {
			if i-last < decisionEveryEpochs {
				t.Fatalf("moved at epochs %d and %d, closer than the %d-epoch decision interval", last, i, decisionEveryEpochs)
			}
			moves++
			last, prev = i, cfg
		}
	}
	if moves < 2 {
		t.Fatalf("%d moves in 40 epochs over budget: the interval was never tested", moves)
	}
}

func TestTrackerOnRealPlantReducesError(t *testing.T) {
	h := NewTracker(Options{})
	h.SetTargets(2.5, 2.0)
	w, err := workloads.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 44)
	if err != nil {
		t.Fatal(err)
	}
	telem := proc.Step()
	var sumP float64
	n := 0
	for k := 0; k < 2500; k++ {
		cfg := h.Step(telem)
		if err := proc.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		telem = proc.Step()
		if k > 2000 {
			sumP += telem.TruePowerW
			n++
		}
	}
	if e := math.Abs(sumP/float64(n)-2.0) / 2.0; e > 0.20 {
		t.Fatalf("heuristic power error %.1f%%", e*100)
	}
}

func TestTrackerInterface(t *testing.T) {
	h := NewTracker(Options{})
	var _ core.ArchController = h
	if h.Name() != "Heuristic" {
		t.Fatal("name")
	}
	h.SetTargets(1, 1)
	if i, p := h.Targets(); i != 1 || p != 1 {
		t.Fatal("targets")
	}
	h.Reset() // must not panic; state cleared
}

// searchPlant is a fake plant for the coordinate search: the metric
// IPS²/P peaks at high frequency and mid cache.
type searchPlant struct{}

func (searchPlant) telemetry(cfg sim.Config, phase int) sim.Telemetry {
	f := cfg.FreqGHz()
	ways := float64(cfg.L2Ways())
	ips := f * (1 + 0.05*ways - 0.005*ways*ways)
	power := 0.3 + 0.5*f*f
	return sim.Telemetry{IPS: ips, PowerW: power, L2MPKI: 1, PhaseID: phase, Config: cfg}
}

// trialEpochs is one settled and measured search trial.
const trialEpochs = core.DefaultOptimizerSettleEpochs + core.DefaultOptimizerMeasureEpochs

// searchToHold steps s on the telemetry tel returns for each issued
// configuration until its search episode ends, failing when it has not
// ended within one full episode (the midrange measurement and every
// trial); it returns the configuration held.
func searchToHold(t *testing.T, s *Searcher, tel func(sim.Config) sim.Telemetry) sim.Config {
	t.Helper()
	cfg := sim.MidrangeConfig()
	for k := 0; k == 0 || s.state != searchHold; k++ {
		if k > (core.DefaultOptimizerMaxTries+1)*trialEpochs {
			t.Fatalf("search still in state %v after %d epochs", s.state, k)
		}
		cfg = s.Step(tel(cfg))
	}
	return cfg
}

func TestSearcherImprovesMetric(t *testing.T) {
	s, err := NewSearcher(SearcherConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := searchPlant{}
	cfg := searchToHold(t, s, func(c sim.Config) sim.Telemetry { return p.telemetry(c, 0) })
	mid := p.telemetry(sim.MidrangeConfig(), 0)
	final := p.telemetry(cfg, 0)
	m0 := mid.IPS * mid.IPS / mid.PowerW
	m1 := final.IPS * final.IPS / final.PowerW
	if m1 <= m0 {
		t.Fatalf("search did not improve the metric: %v -> %v (cfg %v)", m0, m1, cfg)
	}
}

func TestSearcherRestartsOnPhaseChange(t *testing.T) {
	s, err := NewSearcher(SearcherConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := searchPlant{}
	cfg := searchToHold(t, s, func(c sim.Config) sim.Telemetry { return p.telemetry(c, 0) })
	s.Step(p.telemetry(cfg, 1))
	if s.state != searchInit {
		t.Fatal("phase change did not restart search")
	}
}

func TestSearcherPeriodicRestart(t *testing.T) {
	s, err := NewSearcher(SearcherConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := searchPlant{}
	cfg := sim.MidrangeConfig()
	settled := false
	restarted := false
	// The first hold doubles the period: the refinement starts 2 periods
	// after the search did.
	for i := 0; i < 3*core.DefaultOptimizerPeriodEpochs; i++ {
		cfg = s.Step(p.telemetry(cfg, 0))
		if s.state == searchHold {
			settled = true
		}
		if settled && s.state == searchInit {
			restarted = true
			break
		}
	}
	if !settled || !restarted {
		t.Fatalf("settled=%v restarted=%v", settled, restarted)
	}
}

func TestSearcherRanksMemoryBoundCacheFirst(t *testing.T) {
	s, err := NewSearcher(SearcherConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.MidrangeConfig()
	// Feed memory-bound telemetry through the init phase.
	for i := 0; i < trialEpochs && s.state == searchInit; i++ {
		s.Step(sim.Telemetry{IPS: 1, PowerW: 1, L2MPKI: 30, Config: cfg})
	}
	if len(s.rank) == 0 || s.rank[0] != knobCache {
		t.Fatalf("memory-bound rank %v, want cache first", s.rank)
	}
	// And compute-bound puts frequency first.
	s2, _ := NewSearcher(SearcherConfig{K: 2})
	for i := 0; i < trialEpochs && s2.state == searchInit; i++ {
		s2.Step(sim.Telemetry{IPS: 1, PowerW: 1, L2MPKI: 0.5, Config: cfg})
	}
	if len(s2.rank) == 0 || s2.rank[0] != knobFreq {
		t.Fatalf("compute-bound rank %v, want frequency first", s2.rank)
	}
}

func TestSearcherValidation(t *testing.T) {
	if _, err := NewSearcher(SearcherConfig{K: 0}); err == nil {
		t.Fatal("expected K validation error")
	}
	s, err := NewSearcher(SearcherConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var _ core.ArchController = s
	if s.Name() != "Heuristic" {
		t.Fatal("name")
	}
	s.SetTargets(1, 2)
	if i, p := s.Targets(); i != 1 || p != 2 {
		t.Fatal("targets")
	}
}

func TestSearcherThreeInputMovesROB(t *testing.T) {
	s, err := NewSearcher(SearcherConfig{K: 2, Options: Options{ThreeInput: true}})
	if err != nil {
		t.Fatal(err)
	}
	// A plant where only a bigger ROB helps the metric.
	mk := func(cfg sim.Config, phase int) sim.Telemetry {
		ips := 1 + float64(cfg.ROBEntries())/64
		return sim.Telemetry{IPS: ips, PowerW: 1, L2MPKI: 30, PhaseID: phase, Config: cfg}
	}
	cfg := searchToHold(t, s, func(c sim.Config) sim.Telemetry { return mk(c, 0) })
	if cfg.ROBIdx <= sim.MidrangeConfig().ROBIdx {
		t.Fatalf("3-input search never grew the ROB: %v", cfg)
	}
}
