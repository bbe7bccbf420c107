package sim

import (
	"math"
	"math/rand"
	"testing"
)

// stubWorkload is a single-phase workload with compute-bound or
// memory-bound character.
type stubWorkload struct {
	name   string
	params PhaseParams
}

func (w stubWorkload) Name() string                  { return w.name }
func (w stubWorkload) Params(int) (PhaseParams, int) { return w.params, 0 }

// stepN steps p n epochs, discarding the telemetry.
func stepN(p *Processor, n int) {
	for i := 0; i < n; i++ {
		p.Step()
	}
}

func computeParams() PhaseParams {
	return PhaseParams{
		ILP: 2.8, MemPKI: 280,
		L1M1: 30, L1Alpha: 0.9, L1Floor: 2.0,
		L2M1: 4, L2Alpha: 1.1, L2Floor: 0.3,
		BranchMPKI: 5, MLPMax: 3, Activity: 1,
	}
}

func memoryParams() PhaseParams {
	return PhaseParams{
		ILP: 1.6, MemPKI: 420,
		L1M1: 90, L1Alpha: 0.5, L1Floor: 25,
		L2M1: 40, L2Alpha: 0.4, L2Floor: 18,
		BranchMPKI: 8, MLPMax: 2.2, Activity: 1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{FreqIdx: -1}, {FreqIdx: 16}, {CacheIdx: 4}, {ROBIdx: 8}, {CacheIdx: -1}, {ROBIdx: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestConfigAccessors(t *testing.T) {
	c := BaselineConfig()
	if math.Abs(c.FreqGHz()-1.3) > 1e-12 {
		t.Fatalf("baseline freq %v", c.FreqGHz())
	}
	if c.L2Ways() != 6 || c.L1Ways() != 3 {
		t.Fatalf("baseline ways (%d,%d)", c.L2Ways(), c.L1Ways())
	}
	if c.ROBEntries() != 48 {
		t.Fatalf("baseline ROB %d", c.ROBEntries())
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
	m := MidrangeConfig()
	if math.Abs(m.FreqGHz()-1.0) > 1e-12 || m.L2Ways() != 4 {
		t.Fatalf("midrange %v", m)
	}
}

func TestKnobLevelTables(t *testing.T) {
	f := FreqLevels()
	if len(f) != 16 || f[0] != 0.5 || math.Abs(f[15]-2.0) > 1e-12 {
		t.Fatalf("freq levels %v", f)
	}
	cw := CacheWaysLevels()
	if len(cw) != 4 || cw[0] != 2 || cw[3] != 8 {
		t.Fatalf("cache levels %v (want ascending ways)", cw)
	}
	r := ROBLevels()
	if len(r) != 8 || r[0] != 16 || r[7] != 128 {
		t.Fatalf("rob levels %v", r)
	}
}

func TestNearestConfig(t *testing.T) {
	c := NearestConfig(1.34, 5.2, 70)
	if math.Abs(c.FreqGHz()-1.3) > 1e-12 {
		t.Fatalf("freq snapped to %v", c.FreqGHz())
	}
	if c.L2Ways() != 6 {
		t.Fatalf("ways snapped to %d", c.L2Ways())
	}
	if c.ROBEntries() != 64 {
		t.Fatalf("ROB snapped to %d", c.ROBEntries())
	}
	// Clamping far outside the range.
	lo := NearestConfig(0, 0, 0)
	if lo.FreqGHz() != 0.5 || lo.L2Ways() != 2 || lo.ROBEntries() != 16 {
		t.Fatalf("low clamp %v", lo)
	}
	hi := NearestConfig(99, 99, 9999)
	if hi.FreqGHz() != 2.0 || hi.L2Ways() != 8 || hi.ROBEntries() != 128 {
		t.Fatalf("high clamp %v", hi)
	}
}

func TestVoltageCurve(t *testing.T) {
	if v := Voltage(0.5); v != 0.80 {
		t.Fatalf("V(0.5) = %v", v)
	}
	if v := Voltage(2.0); v != 1.25 {
		t.Fatalf("V(2.0) = %v", v)
	}
	prev := 0.0
	for _, f := range FreqSettingsGHz {
		v := Voltage(f)
		if v <= prev {
			t.Fatalf("voltage not increasing at %v GHz", f)
		}
		prev = v
	}
	// Clamps outside range.
	if Voltage(0.1) != 0.80 || Voltage(3) != 1.25 {
		t.Fatal("voltage clamp failed")
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c, err := NewCache(CacheGeometry{SizeBytes: 1 << 12, Ways: 4, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1004) {
		t.Fatal("same-line access should hit")
	}
	acc, miss := c.Stats()
	if acc != 3 || miss != 1 {
		t.Fatalf("stats %d/%d", acc, miss)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways, 64B lines: 128 bytes.
	c, err := NewCache(CacheGeometry{SizeBytes: 128, Ways: 2, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a) // miss, fill
	c.Access(b) // miss, fill
	c.Access(a) // hit, a now MRU
	c.Access(d) // miss, evicts b (LRU)
	if !c.Access(a) {
		t.Fatal("a should still be cached")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheWayGatingInvalidates(t *testing.T) {
	c, err := NewCache(CacheGeometry{SizeBytes: 256, Ways: 4, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Fill all 4 ways of the single set.
	for i := 0; i < 4; i++ {
		c.Access(uint64(i * 64))
	}
	if err := c.SetEnabledWays(2); err != nil {
		t.Fatal(err)
	}
	// Ways 2,3 lost their lines; ways 0,1 keep theirs.
	hits := 0
	for i := 0; i < 4; i++ {
		c.ResetStats()
		if c.Access(uint64(i * 64)) {
			hits++
		}
	}
	if hits > 2 {
		t.Fatalf("%d hits after gating to 2 ways", hits)
	}
	if err := c.SetEnabledWays(0); err == nil {
		t.Fatal("expected range error")
	}
	if err := c.SetEnabledWays(5); err == nil {
		t.Fatal("expected range error")
	}
}

func TestCacheGeometryValidate(t *testing.T) {
	bad := []CacheGeometry{
		{SizeBytes: 0, Ways: 2, LineBytes: 64},
		{SizeBytes: 100, Ways: 2, LineBytes: 64},
		{SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64}, // 3 sets
		{SizeBytes: 1 << 12, Ways: 4, LineBytes: 48},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected invalid geometry %+v", i, g)
		}
	}
	good := CacheGeometry{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 128 {
		t.Fatalf("sets = %d", good.Sets())
	}
}

func TestMissRateDecreasesWithWays(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	spec := DefaultTraceSpec()
	spec.WorkingSetBytes = 48 << 10 // larger than a 2-way slice of L1
	gen := NewTraceGen(spec, rng)
	trace := gen.Generate(60000)
	pts, err := CalibrateMissCurve(CacheGeometry{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64}, trace, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MissRate > pts[i-1].MissRate+0.01 {
			t.Fatalf("miss rate not (approximately) decreasing: %+v", pts)
		}
	}
	if pts[0].MissRate <= pts[3].MissRate {
		t.Fatalf("no capacity sensitivity: %+v", pts)
	}
}

func TestHierarchyAccessLevels(t *testing.T) {
	h, err := NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x123440)
	if got := h.Access(addr); got != MissAll {
		t.Fatalf("cold access = %v, want MissAll", got)
	}
	if got := h.Access(addr); got != HitL1 {
		t.Fatalf("second access = %v, want HitL1", got)
	}
	// Thrash L1 (32KB) but not L2 with a 64KB loop.
	for rep := 0; rep < 3; rep++ {
		for a := uint64(0); a < 64<<10; a += 64 {
			h.Access(a)
		}
	}
	if got := h.Access(addr); got == MissAll {
		t.Fatal("L2 should retain the line")
	}
	if err := h.SetWays(6, 3); err != nil {
		t.Fatal(err)
	}
	if h.L2.EnabledWays() != 6 || h.L1.EnabledWays() != 3 {
		t.Fatal("SetWays not applied")
	}
}

func TestCalibrateMissCurveErrors(t *testing.T) {
	g := CacheGeometry{SizeBytes: 1 << 12, Ways: 2, LineBytes: 64}
	if _, err := CalibrateMissCurve(g, make([]uint64, 10), 10); err == nil {
		t.Fatal("expected warmup error")
	}
}

func TestTraceGenAlignmentAndMix(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	gen := NewTraceGen(DefaultTraceSpec(), rng)
	coldSpan := DefaultTraceSpec().ColdSpanBytes
	inWS := 0
	n := 20000
	for i := 0; i < n; i++ {
		a := gen.Next()
		if a%64 != 0 {
			t.Fatalf("address %#x not line-aligned", a)
		}
		if a >= coldSpan {
			t.Fatalf("address %#x outside cold span", a)
		}
		if a < DefaultTraceSpec().WorkingSetBytes {
			inWS++
		}
	}
	if frac := float64(inWS) / float64(n); frac < 0.8 {
		t.Fatalf("only %.2f of accesses in working set", frac)
	}
}

func TestFitPowerLawMissCurve(t *testing.T) {
	// Synthesize points from a known law and check recovery.
	m1, alpha, floor := 0.4, 1.2, 0.02
	var pts []MissCurvePoint
	for w := 1; w <= 8; w++ {
		pts = append(pts, MissCurvePoint{Ways: w, MissRate: floor + (m1-floor)*math.Pow(float64(w), -alpha)})
	}
	gm1, galpha, _ := FitPowerLawMissCurve(pts)
	if math.Abs(galpha-alpha) > 0.15 {
		t.Fatalf("alpha = %v, want %v", galpha, alpha)
	}
	if math.Abs(gm1-m1) > 0.1 {
		t.Fatalf("m1 = %v, want %v", gm1, m1)
	}
}

func TestMissCurveEvaluation(t *testing.T) {
	p := computeParams()
	if p.L1MPKI(1) <= p.L1MPKI(4) {
		t.Fatal("L1 curve must decrease with ways")
	}
	if p.L2MPKI(2) <= p.L2MPKI(8) {
		t.Fatal("L2 curve must decrease with ways")
	}
	if p.L1MPKI(4) < p.L1Floor {
		t.Fatal("curve below floor")
	}
}

func TestEvalPerfFrequencyScaling(t *testing.T) {
	p := computeParams()
	low := EvalPerf(p, Config{FreqIdx: 0, CacheIdx: 0, ROBIdx: 7}, 0, 0, 0)
	high := EvalPerf(p, Config{FreqIdx: 15, CacheIdx: 0, ROBIdx: 7}, 0, 0, 0)
	if high.BIPS <= low.BIPS {
		t.Fatal("compute-bound BIPS must rise with frequency")
	}
	// Memory-bound workloads scale sublinearly with frequency.
	m := memoryParams()
	mlow := EvalPerf(m, Config{FreqIdx: 0, CacheIdx: 0, ROBIdx: 7}, 0, 0, 0)
	mhigh := EvalPerf(m, Config{FreqIdx: 15, CacheIdx: 0, ROBIdx: 7}, 0, 0, 0)
	computeSpeedup := high.BIPS / low.BIPS
	memSpeedup := mhigh.BIPS / mlow.BIPS
	if memSpeedup >= computeSpeedup {
		t.Fatalf("memory-bound speedup %v not below compute-bound %v", memSpeedup, computeSpeedup)
	}
}

func TestEvalPerfROBAndCache(t *testing.T) {
	p := computeParams()
	smallROB := EvalPerf(p, Config{FreqIdx: 8, CacheIdx: 1, ROBIdx: 0}, 0, 0, 0)
	bigROB := EvalPerf(p, Config{FreqIdx: 8, CacheIdx: 1, ROBIdx: 7}, 0, 0, 0)
	if bigROB.IPC <= smallROB.IPC {
		t.Fatal("IPC must rise with ROB size")
	}
	bigCache := EvalPerf(p, Config{FreqIdx: 8, CacheIdx: 0, ROBIdx: 2}, 0, 0, 0)
	smallCache := EvalPerf(p, Config{FreqIdx: 8, CacheIdx: 3, ROBIdx: 2}, 0, 0, 0)
	if bigCache.IPC <= smallCache.IPC {
		t.Fatal("IPC must rise with cache size")
	}
}

func TestEvalPerfWarmupAndStall(t *testing.T) {
	p := computeParams()
	cfg := BaselineConfig()
	clean := EvalPerf(p, cfg, 0, 0, 0)
	warm := EvalPerf(p, cfg, 10, 3, 0)
	if warm.BIPS >= clean.BIPS {
		t.Fatal("warm-up misses must reduce BIPS")
	}
	stalled := EvalPerf(p, cfg, 0, 0, 0.1)
	if math.Abs(stalled.Instructions-0.9*clean.Instructions) > 1e-9*clean.Instructions {
		t.Fatalf("10%% stall: instr %v vs %v", stalled.Instructions, clean.Instructions)
	}
	// L2 misses never exceed L1 misses.
	m := memoryParams()
	res := EvalPerf(m, Config{FreqIdx: 8, CacheIdx: 3, ROBIdx: 0}, 0, 50, 0)
	if res.L2MPKI > res.L1MPKI {
		t.Fatalf("L2 MPKI %v exceeds L1 %v", res.L2MPKI, res.L1MPKI)
	}
}

func TestEvalPowerBehaviour(t *testing.T) {
	p := computeParams()
	cfgLow := Config{FreqIdx: 0, CacheIdx: 3, ROBIdx: 0}
	cfgHigh := Config{FreqIdx: 15, CacheIdx: 0, ROBIdx: 7}
	perfLow := EvalPerf(p, cfgLow, 0, 0, 0)
	perfHigh := EvalPerf(p, cfgHigh, 0, 0, 0)
	pwLow := EvalPower(p, cfgLow, perfLow, 50, 1)
	pwHigh := EvalPower(p, cfgHigh, perfHigh, 50, 1)
	if pwHigh.TotalW <= pwLow.TotalW {
		t.Fatal("max config must draw more power")
	}
	if pwHigh.TotalW < 2.5 || pwHigh.TotalW > 6 {
		t.Fatalf("max-config power %v W implausible", pwHigh.TotalW)
	}
	if pwLow.TotalW < 0.2 || pwLow.TotalW > 1.2 {
		t.Fatalf("min-config power %v W implausible", pwLow.TotalW)
	}
	// Hotter die leaks more.
	pwHot := EvalPower(p, cfgHigh, perfHigh, 90, 1)
	if pwHot.LeakageW <= pwHigh.LeakageW {
		t.Fatal("leakage must grow with temperature")
	}
	if e := pwHigh.EnergyJ; math.Abs(e-pwHigh.TotalW*EpochSeconds) > 1e-12 {
		t.Fatalf("energy %v inconsistent with power", e)
	}
}

func TestBaselineOperatingPoint(t *testing.T) {
	// The paper targets 2.5 BIPS / 2 W; the baseline configuration on a
	// compute-friendly workload must land in a plausible neighborhood.
	p := computeParams()
	cfg := BaselineConfig()
	perf := EvalPerf(p, cfg, 0, 0, 0)
	pw := EvalPower(p, cfg, perf, 60, 1)
	if perf.BIPS < 1.2 || perf.BIPS > 3.2 {
		t.Fatalf("baseline BIPS %v out of plausible range", perf.BIPS)
	}
	if pw.TotalW < 1.0 || pw.TotalW > 3.0 {
		t.Fatalf("baseline power %v W out of plausible range", pw.TotalW)
	}
	// The 2.5 BIPS target must be reachable somewhere in the config
	// space for a responsive workload...
	best := 0.0
	for fi := range FreqSettingsGHz {
		perf := EvalPerf(p, Config{FreqIdx: fi, CacheIdx: 0, ROBIdx: 7}, 0, 0, 0)
		if perf.BIPS > best {
			best = perf.BIPS
		}
	}
	if best < 2.5 {
		t.Fatalf("responsive workload peaks at %v BIPS < 2.5", best)
	}
	// ...and unreachable for a memory-bound one (non-responsive).
	m := memoryParams()
	best = 0
	for fi := range FreqSettingsGHz {
		perf := EvalPerf(m, Config{FreqIdx: fi, CacheIdx: 0, ROBIdx: 7}, 0, 0, 0)
		if perf.BIPS > best {
			best = perf.BIPS
		}
	}
	if best >= 2.5 {
		t.Fatalf("memory-bound workload reaches %v BIPS; should be non-responsive", best)
	}
}

func TestProcessorDeterminismPerSeed(t *testing.T) {
	w := stubWorkload{name: "w", params: computeParams()}
	p1, err := NewProcessor(w, DefaultProcessorOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewProcessor(w, DefaultProcessorOptions(), 7)
	r1 := p1.Run(100)
	r2 := p2.Run(100)
	for i := range r1 {
		if r1[i].IPS != r2[i].IPS || r1[i].PowerW != r2[i].PowerW {
			t.Fatalf("epoch %d: runs with same seed diverge", i)
		}
	}
	p3, _ := NewProcessor(w, DefaultProcessorOptions(), 8)
	r3 := p3.Run(100)
	same := true
	for i := range r1 {
		if r1[i].IPS != r3[i].IPS {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestProcessorResizeTransient(t *testing.T) {
	w := stubWorkload{name: "w", params: computeParams()}
	p, err := NewProcessor(w, ProcessorOptions{Deterministic: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(Config{FreqIdx: 8, CacheIdx: 0, ROBIdx: 4}); err != nil {
		t.Fatal(err)
	}
	p.Run(50) // settle
	steady := p.Step().TrueIPS
	// Shrink the cache: transient warm-up misses then a new steady state.
	if err := p.Apply(Config{FreqIdx: 8, CacheIdx: 2, ROBIdx: 4}); err != nil {
		t.Fatal(err)
	}
	first := p.Step().TrueIPS
	p.Run(20)
	settled := p.Step().TrueIPS
	if first >= settled {
		t.Fatalf("no warm-up transient: first %v, settled %v", first, settled)
	}
	if settled >= steady {
		t.Fatalf("smaller cache should settle below old steady state (%v vs %v)", settled, steady)
	}
}

func TestProcessorDVFSStallOneEpoch(t *testing.T) {
	w := stubWorkload{name: "w", params: computeParams()}
	p, _ := NewProcessor(w, ProcessorOptions{Deterministic: true}, 1)
	p.Run(30)
	before := p.Step()
	cfg := p.Config()
	cfg.FreqIdx++ // +0.1 GHz
	if err := p.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	stallEpoch := p.Step()
	after := p.Step()
	// The stall epoch loses 10% of its cycles; the next epoch at the
	// higher frequency must beat both.
	if stallEpoch.TrueIPS >= after.TrueIPS {
		t.Fatalf("stall epoch %v not below post-transition %v", stallEpoch.TrueIPS, after.TrueIPS)
	}
	if after.TrueIPS <= before.TrueIPS {
		t.Fatal("higher frequency should raise IPS")
	}
}

func TestProcessorTotalsAndEDP(t *testing.T) {
	w := stubWorkload{name: "w", params: computeParams()}
	p, _ := NewProcessor(w, ProcessorOptions{Deterministic: true}, 1)
	p.Run(100)
	e, n, s := p.Totals()
	if e <= 0 || n <= 0 {
		t.Fatal("totals not accumulated")
	}
	if math.Abs(s-100*EpochSeconds) > 1e-12 {
		t.Fatalf("seconds %v", s)
	}
	ed1 := EnergyDelayProduct(e, n, s, 1)
	ed2 := EnergyDelayProduct(e, n, s, 2)
	ed3 := EnergyDelayProduct(e, n, s, 3)
	if !(ed1 > 0 && ed2 > 0 && ed3 > 0) {
		t.Fatal("EDP values must be positive")
	}
	if math.Abs(ed2/ed1-s/n) > 1e-18 {
		t.Fatal("E×D should equal E × (D per instruction)")
	}
	if !math.IsInf(EnergyDelayProduct(1, 0, 1, 2), 1) {
		t.Fatal("zero instructions should give +Inf")
	}
	p.ResetTotals()
	if e2, _, _ := p.Totals(); e2 != 0 {
		t.Fatal("ResetTotals failed")
	}
}

func TestProcessorRejectsNilWorkloadAndBadConfig(t *testing.T) {
	if _, err := NewProcessor(nil, DefaultProcessorOptions(), 1); err == nil {
		t.Fatal("expected nil-workload error")
	}
	w := stubWorkload{name: "w", params: computeParams()}
	p, _ := NewProcessor(w, DefaultProcessorOptions(), 1)
	if err := p.Apply(Config{FreqIdx: 99}); err == nil {
		t.Fatal("expected config validation error")
	}
}

func TestThermalStateConvergence(t *testing.T) {
	tmp := 40.0
	for i := 0; i < 10000; i++ {
		tmp = stepTemperature(tmp, 2.0)
	}
	want := tempAmbientC + thermalResKPerW*2.0
	if math.Abs(tmp-want) > 0.1 {
		t.Fatalf("steady temp %v, want %v", tmp, want)
	}
}
