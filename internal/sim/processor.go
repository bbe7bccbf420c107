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

// SensorNoise configures multiplicative Gaussian measurement noise.
type SensorNoise struct {
	// IPSStd and PowerStd are relative standard deviations (e.g. 0.01
	// for 1%).
	IPSStd, PowerStd float64
}

// DefaultSensorNoise reflects a fine-grained performance counter and a
// coarser power sensor.
func DefaultSensorNoise() SensorNoise {
	return SensorNoise{IPSStd: 0.01, PowerStd: 0.025}
}

// ProcessorOptions tunes the plant's stochastic behaviour.
type ProcessorOptions struct {
	Sensor SensorNoise
	// PhaseNoiseStd is the log-std of the AR(1) workload activity
	// fluctuation (the paper's non-determinism unpredictability).
	PhaseNoiseStd float64
	// PhaseNoiseRho is the AR(1) pole of the fluctuation.
	PhaseNoiseRho float64
	// Deterministic disables all stochastic effects (useful in tests).
	Deterministic bool
}

// DefaultProcessorOptions returns the standard noise setup.
func DefaultProcessorOptions() ProcessorOptions {
	return ProcessorOptions{
		Sensor:        DefaultSensorNoise(),
		PhaseNoiseStd: 0.04,
		PhaseNoiseRho: 0.9,
	}
}

// Processor is the controlled system: a configurable out-of-order core
// running a workload, stepped one control epoch at a time.
//
// Its internal dynamic states — cache warm-up transients after resizes,
// the DVFS transition stall, the thermal/leakage node, and the AR(1)
// workload fluctuation — are what give the plant the multi-epoch
// dynamics that system identification captures.
type Processor struct {
	cfg      Config
	workload Workload
	opts     ProcessorOptions
	rng      *rand.Rand

	epoch     int
	tempC     float64
	warmL1    float64 // transient extra L1 MPKI from resize
	warmL2    float64
	dvfsStall bool // a frequency change happened since the last epoch
	arState   float64
	// surf tabulates the current phase's response surface.
	surf surface

	totalEnergyJ float64
	totalInstr   float64
	totalSeconds float64

	// Telemetry binding (nil when unbound, see BindTelemetry) and the
	// flush marks for the cumulative float counters.
	met                   *procMetrics
	metEnergy0, metInstr0 float64
}

// NewProcessor builds a processor running the given workload from the
// midrange configuration. The seed fixes all stochastic behaviour.
func NewProcessor(w Workload, opts ProcessorOptions, seed int64) (*Processor, error) {
	if w == nil {
		return nil, errors.New("sim: workload is required")
	}
	return &Processor{
		cfg:      MidrangeConfig(),
		workload: w,
		opts:     opts,
		rng:      rand.New(rand.NewSource(seed)),
		tempC:    tempAmbientC + 10,
	}, nil
}

// Config returns the current knob settings.
func (p *Processor) Config() Config { return p.cfg }

// Workload returns the bound workload.
func (p *Processor) Workload() Workload { return p.workload }

// Epoch returns the number of epochs executed.
func (p *Processor) Epoch() int { return p.epoch }

// Apply changes the knob settings, modeling actuation overheads: a DVFS
// transition stalls the next epoch for 5 µs, and resizing a cache incurs
// warm-up misses proportional to the number of ways changed (gated ways
// lose their contents; re-enabled ways come back cold).
func (p *Processor) Apply(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		if p.met != nil {
			p.met.applyInvalid.Inc()
		}
		return err
	}
	if cfg.FreqIdx != p.cfg.FreqIdx {
		p.dvfsStall = true
		if p.met != nil {
			p.met.dvfsTransitions.Inc()
		}
	}
	if cfg.CacheIdx != p.cfg.CacheIdx {
		dl1 := float64(abs(cfg.L1Ways() - p.cfg.L1Ways()))
		dl2 := float64(abs(cfg.L2Ways() - p.cfg.L2Ways()))
		p.warmL1 += 6.0 * dl1
		p.warmL2 += 2.5 * dl2
		if p.met != nil {
			p.met.cacheResizes.Inc()
		}
	}
	if cfg.ROBIdx != p.cfg.ROBIdx {
		// ROB resizing drains in-flight work: small one-epoch hit
		// modeled as a tiny warm-up on the L1 path.
		p.warmL1 += 0.4
		if p.met != nil {
			p.met.robResizes.Inc()
		}
	}
	p.cfg = cfg
	return nil
}

// ApplyContinuous quantizes continuous knob requests (frequency in GHz,
// cache size in L2 ways, ROB entries) to the nearest settings and
// applies them, returning the actually applied configuration.
func (p *Processor) ApplyContinuous(freqGHz, l2Ways, robEntries float64) Config {
	cfg := NearestConfig(freqGHz, l2Ways, robEntries)
	_ = p.Apply(cfg) // NearestConfig always yields a valid Config.
	return cfg
}

// Step executes one 50 µs control epoch and returns the telemetry.
func (p *Processor) Step() (t Telemetry) {
	p.step(&t)
	return t
}

// step executes one epoch of the bound workload into t.
func (p *Processor) step(t *Telemetry) {
	params, phaseID := p.workload.Params(p.epoch)
	p.stepWithParams(&params, phaseID, t)
}

// stepWithParams runs one epoch with externally supplied phase
// parameters into t; the trace-driven processor uses it to substitute
// measured miss rates for the analytic curves. The AR(1) fluctuation is
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
	m.ips.Set(t.IPS)
	m.power.Set(t.PowerW)
	m.temp.Set(t.TempC)
	m.l1mpki.Set(t.L1MPKI)
	m.l2mpki.Set(t.L2MPKI)
	m.energyJ.Add(p.totalEnergyJ - p.metEnergy0)
	m.instructions.Add(p.totalInstr - p.metInstr0)
	p.metEnergy0, p.metInstr0 = p.totalEnergyJ, p.totalInstr
}

// stepCore is the uninstrumented epoch step. It sets every field of t.
func (p *Processor) stepCore(params *PhaseParams, phaseID int, t *Telemetry) {
	// Stochastic workload fluctuation (AR(1) in the log domain) applied
	// to ILP, memory intensity, and activity.
	mult := 1.0
	if !p.opts.Deterministic && p.opts.PhaseNoiseStd > 0 {
		rho := p.opts.PhaseNoiseRho
		p.arState = rho*p.arState + p.opts.PhaseNoiseStd*math.Sqrt(1-rho*rho)*p.rng.NormFloat64()
		mult = math.Exp(p.arState)
	}
	params.ILP *= mult
	params.MemPKI *= mult
	params.Activity *= mult

	stall := 0.0
	if p.dvfsStall {
		stall = DVFSTransitionSeconds / EpochSeconds
		p.dvfsStall = false
	}
	var perf PerfResult
	var pw PowerResult
	p.surf.refresh(params)
	p.surf.perfInto(&perf, params, p.cfg, p.warmL1, p.warmL2, stall)
	powerInto(&pw, params, p.cfg, &perf, p.tempC, params.Activity)

	// Advance internal states.
	p.tempC = stepTemperature(p.tempC, pw.TotalW)
	// Warm-up transients decay as the resized arrays refill: the small
	// L1 recovers in a few epochs; refilling the 256 KB L2 takes on the
	// order of ten epochs at realistic fill bandwidth. These multi-epoch
	// transients are the plant dynamics that make model order matter
	// (paper Fig. 7).
	p.warmL1 *= 0.60
	p.warmL2 *= 0.88
	if p.warmL1 < 1e-4 {
		p.warmL1 = 0
	}
	if p.warmL2 < 1e-4 {
		p.warmL2 = 0
	}

	// Filled field by field: a composite literal assigned through t
	// compiles to a zeroed temporary plus a whole-struct copy.
	t.Epoch = p.epoch
	t.TrueIPS = perf.BIPS
	t.TruePowerW = pw.TotalW
	t.TempC = p.tempC
	t.Instructions = perf.Instructions
	t.EnergyJ = pw.EnergyJ
	t.L1MPKI = perf.L1MPKI
	t.L2MPKI = perf.L2MPKI
	t.PhaseID = phaseID
	t.Config = p.cfg
	t.IPS = t.TrueIPS
	t.PowerW = t.TruePowerW
	if !p.opts.Deterministic {
		t.IPS *= 1 + p.opts.Sensor.IPSStd*p.rng.NormFloat64()
		t.PowerW *= 1 + p.opts.Sensor.PowerStd*p.rng.NormFloat64()
		if t.IPS < 0 {
			t.IPS = 0
		}
		if t.PowerW < 0 {
			t.PowerW = 0
		}
	}

	p.totalEnergyJ += pw.EnergyJ
	p.totalInstr += perf.Instructions
	p.totalSeconds += EpochSeconds
	p.epoch++
}

// Run executes n epochs and returns the telemetry trace.
func (p *Processor) Run(n int) []Telemetry {
	out := make([]Telemetry, n)
	for i := range out {
		p.step(&out[i])
	}
	return out
}

// Advance executes n epochs for their side effects only (dynamic state
// and the cumulative Totals counters), discarding per-epoch telemetry.
// Sweeps that only read Totals — the static-oracle grid search runs
// thousands of configurations — use this to avoid allocating a
// telemetry trace per configuration.
func (p *Processor) Advance(n int) {
	var t Telemetry
	for i := 0; i < n; i++ {
		p.step(&t)
	}
}

// Totals returns cumulative energy (J), instructions, and wall-clock
// seconds since construction or the last ResetTotals.
func (p *Processor) Totals() (energyJ, instructions, seconds float64) {
	return p.totalEnergyJ, p.totalInstr, p.totalSeconds
}

// ResetTotals clears the cumulative counters (not the dynamic state).
func (p *Processor) ResetTotals() {
	p.totalEnergyJ, p.totalInstr, p.totalSeconds = 0, 0, 0
	p.metEnergy0, p.metInstr0 = 0, 0
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
