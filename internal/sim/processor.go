package sim

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Telemetry is what the sensors report at the end of each 50 µs epoch.
// IPS and PowerW include sensor noise — the paper's second
// unpredictability matrix; TrueIPS/TruePowerW are the noiseless values
// for evaluation.
type Telemetry struct {
	Epoch int
	// IPS is measured performance in BIPS (noisy).
	IPS float64
	// PowerW is measured power in watts (noisy).
	PowerW float64
	// TrueIPS / TruePowerW are the noiseless plant outputs.
	TrueIPS    float64
	TruePowerW float64
	// TempC is the die temperature.
	TempC float64
	// Instructions committed this epoch; EnergyJ consumed this epoch.
	Instructions float64
	EnergyJ      float64
	// L1MPKI and L2MPKI are the cache miss counters (misses per
	// kilo-instruction) heuristic policies read to judge memory
	// boundedness, as real cores expose via performance counters.
	L1MPKI, L2MPKI float64
	// PhaseID identifies the workload phase; a change signals the
	// optimizer (Isci-style phase detection).
	PhaseID int
	// Config in effect during the epoch.
	Config Config
}

// The plant's fixed noise: multiplicative Gaussian sensor noise with
// relative standard deviations sensorIPSStd (a fine-grained performance
// counter) and sensorPowerStd (a coarser power sensor), and the AR(1)
// pole phaseNoiseRho of the workload fluctuation.
const (
	sensorIPSStd   float64 = 0.01
	sensorPowerStd float64 = 0.025
	phaseNoiseRho  float64 = 0.9
)

// ProcessorOptions tunes the plant's stochastic behaviour.
type ProcessorOptions struct {
	// PhaseNoiseStd is the log-std of the AR(1) workload activity
	// fluctuation (the paper's non-determinism unpredictability).
	PhaseNoiseStd float64
	// Deterministic disables all stochastic effects (useful in tests).
	Deterministic bool
}

// DefaultProcessorOptions returns the standard noise setup.
func DefaultProcessorOptions() ProcessorOptions {
	return ProcessorOptions{PhaseNoiseStd: 0.04}
}

// Processor is the controlled system: a configurable out-of-order core
// running a workload, stepped one control epoch at a time.
//
// Its internal dynamic states — cache warm-up transients after resizes,
// the DVFS transition stall, the thermal/leakage node, and the AR(1)
// workload fluctuation — are what give the plant the multi-epoch
// dynamics that system identification captures.
type Processor struct {
	workload Workload
	opts     ProcessorOptions
	rng      *rand.Rand

	epoch   int
	arState float64
	// surf tabulates the current phase's response surface.
	surf surface

	// configState is everything that depends on the applied
	// configuration; the fields above are shared by every configuration
	// run on one (workload, seed) (see Lockstep).
	configState

	// Telemetry binding (nil when unbound, see BindTelemetry).
	met *procMetrics
}

// sensorNoise is one epoch's multiplicative sensor noise: the factors
// the measured IPS and power are scaled by, when on (it is off under
// Deterministic).
type sensorNoise struct {
	on         bool
	ips, power float64
}

// apply sets t's measured outputs: its true ones, scaled by n when on
// and clamped at zero.
func (n sensorNoise) apply(t *Telemetry) {
	t.IPS = t.TrueIPS
	t.PowerW = t.TruePowerW
	if n.on {
		t.IPS *= n.ips
		t.PowerW *= n.power
		if t.IPS < 0 {
			t.IPS = 0
		}
		if t.PowerW < 0 {
			t.PowerW = 0
		}
	}
}

// configState is the part of the plant that depends on the applied
// configuration: the knobs, the thermal node, the cache warm-up
// transients, the pending DVFS stall and the cumulative totals. Its
// apply, advance and report methods are the plant's one copy of the
// actuation and per-epoch arithmetic.
type configState struct {
	cfg       Config
	tempC     float64
	warmL1    float64 // transient extra L1 MPKI from resize
	warmL2    float64
	dvfsStall bool // a frequency change happened since the last epoch

	totalEnergyJ float64
	totalInstr   float64
	totalSeconds float64
	// metEnergy0 and metInstr0 are the totals already added to the
	// bound energy and instruction counters.
	metEnergy0, metInstr0 float64
}

func initialConfigState() configState {
	return configState{cfg: MidrangeConfig(), tempC: tempAmbientC + 10}
}

// applyCounted validates cfg and applies it, counting the rejection or
// the knobs it changed on m when m is non-nil.
func (s *configState) applyCounted(cfg Config, m *procMetrics) error {
	if err := cfg.Validate(); err != nil {
		if m != nil {
			m.applyInvalid.Inc()
		}
		return err
	}
	freq, cache, rob := s.apply(cfg)
	if m != nil {
		if freq {
			m.dvfsTransitions.Inc()
		}
		if cache {
			m.cacheResizes.Inc()
		}
		if rob {
			m.robResizes.Inc()
		}
	}
	return nil
}

// apply switches s to cfg, which must be valid, charging the actuation
// overheads, and reports which knobs changed.
func (s *configState) apply(cfg Config) (freq, cache, rob bool) {
	if cfg.FreqIdx != s.cfg.FreqIdx {
		s.dvfsStall = true
		freq = true
	}
	if cfg.CacheIdx != s.cfg.CacheIdx {
		dl1 := float64(abs(cfg.L1Ways() - s.cfg.L1Ways()))
		dl2 := float64(abs(cfg.L2Ways() - s.cfg.L2Ways()))
		s.warmL1 += 6.0 * dl1
		s.warmL2 += 2.5 * dl2
		cache = true
	}
	if cfg.ROBIdx != s.cfg.ROBIdx {
		// ROB resizing drains in-flight work: small one-epoch hit
		// modeled as a tiny warm-up on the L1 path.
		s.warmL1 += 0.4
		rob = true
	}
	s.cfg = cfg
	return freq, cache, rob
}

// advance runs one epoch at s's configuration on the phase surf was
// last refreshed with, params carrying this epoch's fluctuation: it
// writes the interval and power models into perf and pw and advances
// the thermal node, the transients and the totals.
func (s *configState) advance(surf *surface, params *PhaseParams, perf *PerfResult, pw *PowerResult) {
	stall := 0.0
	if s.dvfsStall {
		stall = DVFSTransitionSeconds / EpochSeconds
		s.dvfsStall = false
	}
	surf.perfInto(perf, params, s.cfg, s.warmL1, s.warmL2, stall)
	powerInto(pw, params, s.cfg, perf, s.tempC, params.Activity)

	s.tempC = stepTemperature(s.tempC, pw.TotalW)
	// Warm-up transients decay as the resized arrays refill: the small
	// L1 recovers in a few epochs; refilling the 256 KB L2 takes on the
	// order of ten epochs at realistic fill bandwidth. These multi-epoch
	// transients are the plant dynamics that make model order matter
	// (paper Fig. 7).
	s.warmL1 *= 0.60
	s.warmL2 *= 0.88
	if s.warmL1 < 1e-4 {
		s.warmL1 = 0
	}
	if s.warmL2 < 1e-4 {
		s.warmL2 = 0
	}

	s.totalEnergyJ += pw.EnergyJ
	s.totalInstr += perf.Instructions
	s.totalSeconds += EpochSeconds
}

// report fills t from the epoch s just advanced, perf and pw being
// what advance wrote, and the epoch and phase: every field but the
// measured outputs, which sensorNoise.apply sets. The two are kept
// small enough to inline, so neither costs the solo step a call.
func (s *configState) report(t *Telemetry, perf *PerfResult, pw *PowerResult, epoch, phaseID int) {
	// Filled field by field: a composite literal assigned through t
	// compiles to a zeroed temporary plus a whole-struct copy.
	t.Epoch = epoch
	t.TrueIPS = perf.BIPS
	t.TruePowerW = pw.TotalW
	t.TempC = s.tempC
	t.Instructions = perf.Instructions
	t.EnergyJ = pw.EnergyJ
	t.L1MPKI = perf.L1MPKI
	t.L2MPKI = perf.L2MPKI
	t.PhaseID = phaseID
	t.Config = s.cfg
}

func (s *configState) totals() Totals {
	return Totals{EnergyJ: s.totalEnergyJ, Instructions: s.totalInstr, Seconds: s.totalSeconds}
}

func (s *configState) resetTotals() {
	s.totalEnergyJ, s.totalInstr, s.totalSeconds = 0, 0, 0
	s.metEnergy0, s.metInstr0 = 0, 0
}

// NewProcessor builds a processor running the given workload from the
// midrange configuration. The seed fixes all stochastic behaviour.
func NewProcessor(w Workload, opts ProcessorOptions, seed int64) (*Processor, error) {
	if w == nil {
		return nil, errNoWorkload
	}
	return &Processor{
		workload:    w,
		opts:        opts,
		rng:         rand.New(rand.NewSource(seed)),
		configState: initialConfigState(),
	}, nil
}

var errNoWorkload = errors.New("sim: workload is required")

// Config returns the current knob settings.
func (p *Processor) Config() Config { return p.cfg }

// Apply changes the knob settings, modeling actuation overheads: a DVFS
// transition stalls the next epoch for 5 µs, and resizing a cache incurs
// warm-up misses proportional to the number of ways changed (gated ways
// lose their contents; re-enabled ways come back cold).
func (p *Processor) Apply(cfg Config) error {
	return p.configState.applyCounted(cfg, p.met)
}

// Step executes one 50 µs control epoch and returns the telemetry.
func (p *Processor) Step() (t Telemetry) {
	p.step(&t)
	return t
}

// step executes one epoch of the bound workload into t.
func (p *Processor) step(t *Telemetry) {
	params, phaseID := p.workload.Params(p.epoch)
	if p.met == nil {
		// Unbound, the common case: one call frame fewer than the seam.
		p.stepCore(&params, phaseID, t)
		return
	}
	p.stepWithParams(&params, phaseID, t)
}

// stepWithParams runs one epoch with externally supplied phase
// parameters into t; the trace-driven processor of the tests uses it to
// substitute measured miss rates for the analytic curves. The AR(1) fluctuation is
// applied to *params in place. The telemetry seam lives here so
// both the analytic and trace-driven paths are counted: a bound
// processor pays one counter increment per epoch, with latency timing
// and gauge updates sampled every procSampleEvery epochs
// (BenchmarkProcessorEpochTelemetry prices it); an unbound one pays a
// nil check.
func (p *Processor) stepWithParams(params *PhaseParams, phaseID int, t *Telemetry) {
	m := p.met
	if m == nil {
		p.stepCore(params, phaseID, t)
		return
	}
	m.epochs.Inc()
	if p.epoch%procSampleEvery != 0 {
		p.stepCore(params, phaseID, t)
		return
	}
	t0 := time.Now()
	p.stepCore(params, phaseID, t)
	m.stepSeconds.Observe(time.Since(t0).Seconds())
	m.sample(t, &p.configState)
}

// stepCore is the uninstrumented epoch step. It sets every field of t,
// leaves params scaled by the epoch's fluctuation and p.surf refreshed
// for them, draws from p's random stream exactly what it would at any
// configuration, and returns the epoch's sensor noise (Lockstep relies
// on all four).
func (p *Processor) stepCore(params *PhaseParams, phaseID int, t *Telemetry) sensorNoise {
	// Stochastic workload fluctuation (AR(1) in the log domain) applied
	// to ILP, memory intensity, and activity.
	mult := 1.0
	if !p.opts.Deterministic && p.opts.PhaseNoiseStd > 0 {
		rho := phaseNoiseRho
		p.arState = rho*p.arState + p.opts.PhaseNoiseStd*math.Sqrt(1-rho*rho)*p.rng.NormFloat64()
		mult = math.Exp(p.arState)
	}
	params.ILP *= mult
	params.MemPKI *= mult
	params.Activity *= mult
	p.surf.refresh(params)
	var perf PerfResult
	var pw PowerResult
	p.configState.advance(&p.surf, params, &perf, &pw)
	p.configState.report(t, &perf, &pw, p.epoch, phaseID)
	var n sensorNoise
	if !p.opts.Deterministic {
		n.on = true
		n.ips = 1 + sensorIPSStd*p.rng.NormFloat64()
		n.power = 1 + sensorPowerStd*p.rng.NormFloat64()
	}
	n.apply(t)
	p.epoch++
	return n
}

// ResetTotals clears the cumulative counters (not the dynamic state).
func (p *Processor) ResetTotals() {
	p.configState.resetTotals()
}

// EnergyDelayProduct returns E·D^(k-1) per instruction committed, the
// metric family the optimizer minimizes (§V): k=1 is energy, k=2 is
// E×D, k=3 is E×D². D is seconds per instruction, so lower is better.
func EnergyDelayProduct(energyJ, instructions, seconds float64, k int) float64 {
	if instructions <= 0 {
		return math.Inf(1)
	}
	e := energyJ / instructions
	d := seconds / instructions
	out := e
	for i := 1; i < k; i++ {
		out *= d
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
