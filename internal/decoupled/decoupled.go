// Package decoupled implements the paper's "Decoupled" comparison
// architecture (Table IV): two independently designed Single Input,
// Single Output formal controllers — one changes the cache size to
// control IPS, the other changes the frequency to control power — with
// no coordination between them.
//
// Each SISO controller is designed with the same rigor as the MIMO one
// (system identification on the training set with only its own input
// excited, LQG servo with Δu penalty and integral action), so the
// comparison isolates exactly the paper's point: formally designed but
// uncoordinated loops can fight each other, because each input in fact
// affects both outputs (§II, §VIII-D).
package decoupled

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mimoctl/internal/core"
	"mimoctl/internal/lqg"
	"mimoctl/internal/mat"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
)

// Controller holds the two SISO loops. It controls the 2-input system
// only (the paper cannot use Decoupled in the 3-input experiments).
type Controller struct {
	cacheLoop *lqg.Controller // cache ways -> IPS
	freqLoop  *lqg.Controller // frequency -> power
	cacheOff  sysid.Offsets
	freqOff   sysid.Offsets

	ipsTarget, powerTarget float64
	cur                    sim.Config
	haveCur                bool
	// Last good sensor readings, substituted for NaN/Inf samples so a
	// corrupt sensor cannot poison the two estimators.
	goodIPS, goodPower float64
	haveGood           bool

	// Fixed-size scratch for the four one-element vectors each Step and
	// SetTargets exchanges with the SISO loops, so the steady-state loop
	// allocates nothing. Struct-value arrays: Clone's shallow copy gives
	// every clone independent scratch.
	scrCacheY, scrFreqY [1]float64
	scrCacheU, scrFreqU [1]float64
	scrCacheR, scrFreqR [1]float64
}

// DesignSpec parameterizes the two SISO designs.
type DesignSpec struct {
	Training     []sim.Workload
	EpochsPerApp int
	Seed         int64
}

// Design identifies the two SISO models and builds their controllers.
func Design(spec DesignSpec) (*Controller, error) {
	if len(spec.Training) == 0 {
		return nil, errors.New("decoupled: training workloads required")
	}
	if spec.EpochsPerApp == 0 {
		spec.EpochsPerApp = 3000
	}
	// SISO identification: excite one knob, hold the other at midrange.
	cacheData, err := collectSISO(spec, true)
	if err != nil {
		return nil, fmt.Errorf("decoupled: cache loop identification: %w", err)
	}
	freqData, err := collectSISO(spec, false)
	if err != nil {
		return nil, fmt.Errorf("decoupled: frequency loop identification: %w", err)
	}
	cacheModel, err := sysid.FitARX(cacheData, sysid.ARXOrders{NA: 2, NB: 2})
	if err != nil {
		return nil, fmt.Errorf("decoupled: cache model: %w", err)
	}
	freqModel, err := sysid.FitARX(freqData, sysid.ARXOrders{NA: 2, NB: 2})
	if err != nil {
		return nil, fmt.Errorf("decoupled: frequency model: %w", err)
	}
	cacheLoop, err := lqg.Design(cacheModel.SS,
		lqg.Weights{OutputWeights: []float64{core.DefaultIPSWeight}, InputWeights: []float64{core.DefaultCacheWeight}},
		lqg.Noise{W: cacheModel.W, V: cacheModel.V},
		lqg.Options{DeltaU: true, Integral: true})
	if err != nil {
		return nil, fmt.Errorf("decoupled: cache controller: %w", err)
	}
	freqLoop, err := lqg.Design(freqModel.SS,
		lqg.Weights{OutputWeights: []float64{core.DefaultPowerWeight}, InputWeights: []float64{core.DefaultFreqWeight}},
		lqg.Noise{W: freqModel.W, V: freqModel.V},
		lqg.Options{DeltaU: true, Integral: true})
	if err != nil {
		return nil, fmt.Errorf("decoupled: frequency controller: %w", err)
	}
	c := &Controller{
		cacheLoop: cacheLoop, freqLoop: freqLoop,
		cacheOff: cacheModel.Off, freqOff: freqModel.Off,
	}
	c.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	return c, nil
}

// collectSISO gathers single-knob identification data: (cache ways ->
// IPS) when cacheLoop, else (frequency -> power). The record pairs each
// input with the next epoch's output, as in the MIMO flow.
func collectSISO(spec DesignSpec, cacheLoop bool) (*sysid.Data, error) {
	total := (spec.EpochsPerApp - 1) * len(spec.Training)
	u := mat.New(total, 1)
	y := mat.New(total, 1)
	row := 0
	for wi, w := range spec.Training {
		rng := rand.New(rand.NewSource(spec.Seed + int64(wi)*6151 + boolInt64(cacheLoop)*3331))
		proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), spec.Seed+int64(wi)*15485863)
		if err != nil {
			return nil, err
		}
		var sig []float64
		if cacheLoop {
			sig = sysid.RandomLevels(rng, spec.EpochsPerApp, sim.CacheWaysLevels(), 3, 12)
		} else {
			sig = sysid.RandomLevels(rng, spec.EpochsPerApp, sim.FreqLevels(), 2, 8)
		}
		mid := sim.MidrangeConfig()
		havePrev := false
		var prevOut float64
		for k := 0; k < spec.EpochsPerApp; k++ {
			cfg := mid
			if cacheLoop {
				cfg = sim.NearestConfig(mid.FreqGHz(), sig[k], float64(mid.ROBEntries()))
			} else {
				cfg = sim.NearestConfig(sig[k], float64(mid.L2Ways()), float64(mid.ROBEntries()))
			}
			if err := proc.Apply(cfg); err != nil {
				return nil, err
			}
			tel := proc.Step()
			if havePrev {
				if cacheLoop {
					u.Set(row, 0, float64(cfg.L2Ways()))
				} else {
					u.Set(row, 0, cfg.FreqGHz())
				}
				y.Set(row, 0, prevOut)
				row++
			}
			if cacheLoop {
				prevOut = tel.IPS
			} else {
				prevOut = tel.PowerW
			}
			havePrev = true
		}
	}
	return sysid.NewData(u, y, sim.EpochSeconds)
}

func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Name implements core.ArchController.
func (c *Controller) Name() string { return "Decoupled" }

// SetTargets implements core.ArchController. Non-finite targets are
// rejected and the previous references stay in effect: a deployed
// controller must keep issuing configurations every epoch, so a bad
// reference cannot be allowed to take down the loop.
func (c *Controller) SetTargets(ips, power float64) {
	if math.IsNaN(ips) || math.IsInf(ips, 0) || math.IsNaN(power) || math.IsInf(power, 0) {
		return
	}
	// The references are scalars per loop, so SetReference cannot fail
	// dimensionally; a rejection keeps the previous reference.
	c.scrCacheR[0] = ips - c.cacheOff.Y0[0]
	if err := c.cacheLoop.SetReference(c.scrCacheR[:]); err != nil {
		return
	}
	c.scrFreqR[0] = power - c.freqOff.Y0[0]
	if err := c.freqLoop.SetReference(c.scrFreqR[:]); err != nil {
		return
	}
	c.ipsTarget, c.powerTarget = ips, power
}

// Targets implements core.ArchController.
func (c *Controller) Targets() (float64, float64) { return c.ipsTarget, c.powerTarget }

// Step implements core.ArchController: each SISO loop acts on its own
// output with no knowledge of the other.
func (c *Controller) Step(t sim.Telemetry) sim.Config {
	if !c.haveCur {
		c.cur = t.Config
		c.haveCur = true
	}
	// Last-good substitution: a NaN/Inf sample would corrupt the Kalman
	// state estimates irreversibly, so corrupt channels are replaced by
	// the most recent good reading (or the target before any good one).
	ips, power := t.IPS, t.PowerW
	if math.IsNaN(ips) || math.IsInf(ips, 0) {
		if c.haveGood {
			ips = c.goodIPS
		} else {
			ips = c.ipsTarget
		}
	}
	if math.IsNaN(power) || math.IsInf(power, 0) {
		if c.haveGood {
			power = c.goodPower
		} else {
			power = c.powerTarget
		}
	}
	c.goodIPS, c.goodPower, c.haveGood = ips, power, true
	t.IPS, t.PowerW = ips, power
	c.scrCacheY[0] = t.IPS - c.cacheOff.Y0[0]
	duCache, err := c.cacheLoop.Step(c.scrCacheY[:])
	if err != nil {
		return c.cur
	}
	c.scrFreqY[0] = t.PowerW - c.freqOff.Y0[0]
	duFreq, err := c.freqLoop.Step(c.scrFreqY[:])
	if err != nil {
		return c.cur
	}
	ways := duCache[0] + c.cacheOff.U0[0]
	freq := duFreq[0] + c.freqOff.U0[0]
	cfg := c.cur
	cfg.FreqIdx = sim.FreqIndexHysteresis(freq, c.cur.FreqIdx, core.ActuatorHysteresis)
	cfg.CacheIdx = sim.CacheIndexHysteresis(ways, c.cur.CacheIdx, core.ActuatorHysteresis)
	// Quantization feedback per loop.
	c.scrCacheU[0] = float64(cfg.L2Ways()) - c.cacheOff.U0[0]
	if err := c.cacheLoop.ObserveApplied(c.scrCacheU[:]); err == nil {
		c.cur.CacheIdx = cfg.CacheIdx
	}
	c.scrFreqU[0] = cfg.FreqGHz() - c.freqOff.U0[0]
	if err := c.freqLoop.ObserveApplied(c.scrFreqU[:]); err == nil {
		c.cur.FreqIdx = cfg.FreqIdx
	}
	return c.cur
}

// Clone returns an independent controller pair sharing the immutable
// SISO designs with deep-copied runtime state, for parallel experiment
// jobs that must not step a shared instance.
func (c *Controller) Clone() *Controller {
	d := *c
	d.cacheLoop = c.cacheLoop.Clone()
	d.freqLoop = c.freqLoop.Clone()
	return &d
}

// Reset implements core.ArchController.
func (c *Controller) Reset() {
	c.cacheLoop.Reset()
	c.freqLoop.Reset()
	c.haveCur = false
	c.haveGood = false
	c.SetTargets(c.ipsTarget, c.powerTarget)
}
