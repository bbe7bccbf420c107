// Package multicore coordinates per-core MIMO controllers under a
// shared chip power budget — the hierarchical arrangement the paper's
// related work discusses (§IX: Raghavendra et al.'s multi-level power
// management, and the coordinated-policy motivation of §I): a slow
// chip-level agent divides the power budget among cores according to
// their measured ability to convert power into performance, and each
// core's fast MIMO controller tracks its assigned (IPS, power) pair.
//
// This is the composition story of MIMO control: the chip agent does not
// need to know anything about frequencies or cache ways — it negotiates
// purely in output space, and the per-core controllers translate.
package multicore

import (
	"errors"
	"fmt"
	"math"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
)

// Core bundles one core's plant and controller.
type Core struct {
	Proc *sim.Processor
	Ctrl core.ArchController
	// IPSGoal is this core's performance goal (BIPS).
	IPSGoal float64

	lastTel sim.Telemetry
	haveTel bool
	// emaIPS / emaPower smooth the measurements the allocator sees.
	emaIPS, emaPower float64
	// emaEff is the smoothed marginal efficiency estimate (BIPS per W).
	emaEff float64
}

// Policy selects how the chip divides the power budget.
type Policy int

// Budget division policies.
const (
	// EqualShare divides the budget uniformly — the uncoordinated
	// baseline.
	EqualShare Policy = iota
	// DemandProportional gives each core a share proportional to its
	// performance shortfall weighted by its measured efficiency, so
	// power flows to the cores that can use it.
	DemandProportional
)

func (p Policy) String() string {
	if p == EqualShare {
		return "equal-share"
	}
	return "demand-proportional"
}

// Chip is a set of cores under one power budget.
type Chip struct {
	Cores  []*Core
	policy Policy

	budgetW float64
	// MinCoreW floors each core's allocation so no core is starved into
	// losing its sensors' signal.
	MinCoreW float64
	// ReallocEveryEpochs is the chip-agent period (slower than the 50 µs
	// core controllers, as in hierarchical designs).
	ReallocEveryEpochs int
	// AllocSmoothing low-passes the allocation so the fast per-core
	// trackers are not constantly disturbed by the chip agent.
	AllocSmoothing float64

	epoch     int
	prevAlloc []float64
}

// ChipTelemetry aggregates one epoch.
type ChipTelemetry struct {
	Epoch      int
	TotalIPS   float64
	TotalPower float64
	PerCore    []sim.Telemetry
}

// New builds a chip. Each core gets its own processor (same options,
// distinct seeds) and its own controller instance.
func New(cores []*Core, budgetW float64, policy Policy) (*Chip, error) {
	if len(cores) == 0 {
		return nil, errors.New("multicore: at least one core required")
	}
	if budgetW <= 0 {
		return nil, errors.New("multicore: budget must be positive")
	}
	for i, c := range cores {
		if c.Proc == nil || c.Ctrl == nil {
			return nil, fmt.Errorf("multicore: core %d missing processor or controller", i)
		}
		if c.IPSGoal <= 0 {
			c.IPSGoal = core.DefaultIPSTarget
		}
	}
	chip := &Chip{
		Cores:              cores,
		policy:             policy,
		budgetW:            budgetW,
		MinCoreW:           0.5,
		ReallocEveryEpochs: 40, // 2 ms at 50 µs epochs
		AllocSmoothing:     0.25,
	}
	chip.reallocate()
	return chip, nil
}

// Step advances every core one epoch, reallocating the budget on the
// chip agent's period.
func (c *Chip) Step() (ChipTelemetry, error) {
	if c.epoch%c.ReallocEveryEpochs == 0 {
		c.reallocate()
	}
	out := ChipTelemetry{Epoch: c.epoch, PerCore: make([]sim.Telemetry, len(c.Cores))}
	for i, core := range c.Cores {
		if !core.haveTel {
			core.lastTel = core.Proc.Step()
			core.haveTel = true
		}
		cfg := core.Ctrl.Step(core.lastTel)
		if err := core.Proc.Apply(cfg); err != nil {
			return ChipTelemetry{}, fmt.Errorf("multicore: core %d: %w", i, err)
		}
		tel := core.Proc.Step()
		core.lastTel = tel
		core.observe(tel)
		out.PerCore[i] = tel
		out.TotalIPS += tel.TrueIPS
		out.TotalPower += tel.TruePowerW
	}
	c.epoch++
	return out, nil
}

// Run advances n epochs, returning the aggregate telemetry.
func (c *Chip) Run(n int) ([]ChipTelemetry, error) {
	out := make([]ChipTelemetry, n)
	for i := range out {
		tel, err := c.Step()
		if err != nil {
			return nil, err
		}
		out[i] = tel
	}
	return out, nil
}

func (co *Core) observe(tel sim.Telemetry) {
	const alpha = 0.05
	if co.emaIPS == 0 {
		co.emaIPS, co.emaPower = tel.IPS, tel.PowerW
	}
	co.emaIPS += alpha * (tel.IPS - co.emaIPS)
	co.emaPower += alpha * (tel.PowerW - co.emaPower)
	if co.emaPower > 0 {
		eff := co.emaIPS / co.emaPower
		if co.emaEff == 0 {
			co.emaEff = eff
		}
		co.emaEff += alpha * (eff - co.emaEff)
	}
}

// reallocate divides the budget and retargets the per-core controllers.
func (c *Chip) reallocate() {
	n := len(c.Cores)
	alloc := make([]float64, n)
	switch c.policy {
	case EqualShare:
		for i := range alloc {
			alloc[i] = c.budgetW / float64(n)
		}
	default: // DemandProportional
		// Weight = measured efficiency (BIPS/W) for cores still short of
		// their goal. Efficiency decides who gets the spare power — a
		// memory-bound core with an unreachable goal has a huge
		// shortfall but cannot convert watts into instructions, so
		// shortfall only *gates* the demand rather than scaling it.
		weights := make([]float64, n)
		var sum float64
		for i, co := range c.Cores {
			eff := co.emaEff
			if eff <= 0 || !co.haveTel {
				eff = 1 // no data yet: neutral demand
			}
			// Demand tapers smoothly to a trickle as the goal is met,
			// avoiding on/off flicker in the allocation.
			demand := 1.0
			if co.haveTel {
				shortfall := (co.IPSGoal - co.emaIPS) / (0.2 * co.IPSGoal)
				demand = math.Max(0.05, math.Min(1, shortfall))
			}
			w := eff * demand
			weights[i] = w
			sum += w
		}
		spare := c.budgetW - float64(n)*c.MinCoreW
		if spare < 0 {
			spare = 0
		}
		for i := range alloc {
			share := 0.0
			if sum > 0 {
				share = weights[i] / sum
			}
			alloc[i] = c.MinCoreW + spare*share
		}
	}
	// Low-pass the allocation and only retarget on meaningful changes.
	if c.prevAlloc == nil {
		c.prevAlloc = append([]float64(nil), alloc...)
	} else {
		a := c.AllocSmoothing
		for i := range alloc {
			alloc[i] = c.prevAlloc[i] + a*(alloc[i]-c.prevAlloc[i])
		}
		// Renormalize the smoothed allocation onto the budget.
		var total float64
		for _, v := range alloc {
			total += v
		}
		if total > 0 {
			for i := range alloc {
				alloc[i] *= c.budgetW / total
			}
		}
		copy(c.prevAlloc, alloc)
	}
	for i, co := range c.Cores {
		_, prev := co.Ctrl.Targets()
		if math.Abs(alloc[i]-prev) > 0.02*prev {
			co.Ctrl.SetTargets(co.IPSGoal, alloc[i])
		}
	}
}

// Allocations returns each core's current power target.
func (c *Chip) Allocations() []float64 {
	out := make([]float64, len(c.Cores))
	for i, co := range c.Cores {
		_, p := co.Ctrl.Targets()
		out[i] = p
	}
	return out
}
