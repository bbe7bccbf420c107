package batch

import (
	"errors"
	"fmt"
	"math"

	"mimoctl/internal/core"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
)

// SupEngine is the supervised lane tier: it lays the supervisor's
// per-loop nominal-path state (targets, last-good sanitize values,
// staleness counters, alarm EMAs, sick streak, grace) out as
// structure-of-arrays alongside an inner Engine's Kalman/LQG lanes and
// fuses sanitize → inner step → divergence monitoring → quantize into
// one pass per lane, so a nominal supervised epoch touches zero mat
// calls and zero heap allocations.
//
// The fused kernel replicates exactly one scalar code path:
// supervisor.Supervised.Step with mode engaged, actuation healthy, no
// adapter, and no flight recorder. Everything else — fallback entry,
// apply-retry/backoff, re-engagement hysteresis — is rare by
// construction in a healthy fleet and is NOT replicated: the lane is
// evicted, bit-identically mid-run, to the scalar Supervised it was
// admitted from (the "twin"), which replays the epoch from exactly the
// pre-epoch state and keeps stepping scalar until the supervisor is
// back on the nominal path, when the lane is re-admitted. The
// differential suite (supdiff_test.go, FuzzSupervisedBatchVsScalar)
// proves the whole arrangement Float64bits-identical to an always-
// scalar supervised loop across fault-injected runs.
//
// Like the bare-MIMO tier, batched stepping does not drive telemetry
// instruments (counters/gauges bound via SetTelemetry/BindTelemetry);
// supervisor.Health counters stay exact. Epochs stepped by an evicted
// twin drive instruments exactly as scalar epochs do.
type SupEngine struct {
	mimo *Engine

	// Supervisor SoA state, indexed by lane id (same ids as mimo).
	opts                               []supervisor.Options
	supIPSTgt, supPowTgt               []float64
	goodIPS, goodPower, goodL1, goodL2 []float64
	haveGood                           []bool
	staleIPS, stalePower               []int
	grace                              []int
	emaInnov, emaErr                   []float64
	sickStreak                         []int
	lastReq                            []sim.Config
	haveReq                            []bool
	fallbackEpochs, healthyStreak      []int
	health                             []supervisor.Health

	// Scalar-side handles per lane.
	twin    []*supervisor.Supervised
	innerMC []*core.MIMOController
	mon     []*health.Monitor
	loop    []*obs.Loop
	loopBus []*obs.Bus
	parked  []bool

	// Per-epoch event batching: events for bus are accumulated across
	// one StepAll and shipped in a single bulk reservation. The sharded
	// driver uses one scratch per shard instead.
	events      []obs.Event
	shardEvents [][]obs.Event
	bus         *obs.Bus
}

// NewSupervised returns an empty supervised engine.
func NewSupervised() *SupEngine {
	return &SupEngine{mimo: New()}
}

// Inner exposes the underlying bare-MIMO engine (shared lane ids).
func (e *SupEngine) Inner() *Engine { return e.mimo }

// Len returns the number of live lanes.
func (e *SupEngine) Len() int { return e.mimo.Len() }

// Slots returns the number of allocated lane slots; see Engine.Slots.
func (e *SupEngine) Slots() int { return e.mimo.Slots() }

// Active reports whether id addresses a live lane.
func (e *SupEngine) Active(id int) bool { return e.mimo.Active(id) }

// Parked reports whether lane id is currently evicted to its scalar
// twin (it still steps — scalar — through StepAll/StepLane).
func (e *SupEngine) Parked(id int) bool { return e.parked[id] }

// Add admits one supervised controller as a batch lane and returns its
// id. Only the nominal configuration is admissible: engaged mode with
// healthy actuation, no adaptation loop, no flight recorder (on the
// supervisor or its inner controller), and an inner core.MIMOController
// of a kernel-specialized shape. The supervisor object stays attached
// as the lane's scalar twin for eviction; do not step it directly while
// the lane is live (Flush first).
func (e *SupEngine) Add(s *supervisor.Supervised) (int, error) {
	if s.Adapter() != nil {
		return -1, errors.New("batch: supervised lane has an adaptation loop attached")
	}
	if s.FlightRecorder() != nil {
		return -1, errors.New("batch: supervised lane has a flight recorder attached")
	}
	if !s.Nominal() {
		return -1, errors.New("batch: supervisor is not on the nominal engaged path")
	}
	mc, ok := s.Inner().(*core.MIMOController)
	if !ok {
		return -1, errors.New("batch: inner controller is not a MIMO lane")
	}
	if mc.FlightRecorder() != nil {
		return -1, errors.New("batch: inner controller has a flight recorder attached")
	}
	id, err := e.mimo.Add(mc.BatchState())
	if err != nil {
		return -1, err
	}
	e.ensure(id + 1)
	e.opts[id] = s.RuntimeOptions()
	e.loadSup(id, s.BatchState())
	e.twin[id] = s
	e.innerMC[id] = mc
	e.mon[id] = s.ModelHealth()
	e.loop[id] = s.LoopObs()
	e.loopBus[id] = s.LoopObs().Bus()
	e.parked[id] = false
	if e.bus == nil {
		e.bus = e.loopBus[id]
	}
	return id, nil
}

// FromSupervised loads a single supervised controller into a fresh
// engine, returning its lane id.
func FromSupervised(s *supervisor.Supervised) (*SupEngine, int, error) {
	e := NewSupervised()
	id, err := e.Add(s)
	if err != nil {
		return nil, -1, err
	}
	return e, id, nil
}

// FromSupervisedFleet loads a fleet; lane i holds sups[i].
func FromSupervisedFleet(sups []*supervisor.Supervised) (*SupEngine, error) {
	e := NewSupervised()
	for i, s := range sups {
		if _, err := e.Add(s); err != nil {
			return nil, fmt.Errorf("batch: supervised controller %d: %w", i, err)
		}
	}
	return e, nil
}

// Retire removes a lane (after flushing its state back to the twin);
// the id becomes invalid and the slot is reused by a later Add.
func (e *SupEngine) Retire(id int) error {
	if !e.mimo.Active(id) {
		return fmt.Errorf("batch: lane %d is not active", id)
	}
	e.Flush(id)
	if err := e.mimo.Retire(id); err != nil {
		return err
	}
	e.twin[id], e.innerMC[id] = nil, nil
	e.mon[id], e.loop[id], e.loopBus[id] = nil, nil, nil
	e.parked[id] = false
	return nil
}

// ensure grows the supervisor-side arrays to cover n lane slots.
func (e *SupEngine) ensure(n int) {
	for len(e.parked) < n {
		e.opts = append(e.opts, supervisor.Options{})
		e.supIPSTgt = append(e.supIPSTgt, 0)
		e.supPowTgt = append(e.supPowTgt, 0)
		e.goodIPS = append(e.goodIPS, 0)
		e.goodPower = append(e.goodPower, 0)
		e.goodL1 = append(e.goodL1, 0)
		e.goodL2 = append(e.goodL2, 0)
		e.haveGood = append(e.haveGood, false)
		e.staleIPS = append(e.staleIPS, 0)
		e.stalePower = append(e.stalePower, 0)
		e.grace = append(e.grace, 0)
		e.emaInnov = append(e.emaInnov, 0)
		e.emaErr = append(e.emaErr, 0)
		e.sickStreak = append(e.sickStreak, 0)
		e.lastReq = append(e.lastReq, sim.Config{})
		e.haveReq = append(e.haveReq, false)
		e.fallbackEpochs = append(e.fallbackEpochs, 0)
		e.healthyStreak = append(e.healthyStreak, 0)
		e.health = append(e.health, supervisor.Health{})
		e.twin = append(e.twin, nil)
		e.innerMC = append(e.innerMC, nil)
		e.mon = append(e.mon, nil)
		e.loop = append(e.loop, nil)
		e.loopBus = append(e.loopBus, nil)
		e.parked = append(e.parked, false)
	}
}

// loadSup copies a supervisor snapshot into lane id's SoA slots.
func (e *SupEngine) loadSup(id int, bs supervisor.BatchState) {
	e.supIPSTgt[id], e.supPowTgt[id] = bs.IPSTarget, bs.PowerTarget
	e.goodIPS[id], e.goodPower[id] = bs.GoodIPS, bs.GoodPower
	e.haveGood[id] = bs.HaveGood
	e.staleIPS[id], e.stalePower[id] = bs.StaleIPS, bs.StalePower
	e.goodL1[id], e.goodL2[id] = bs.GoodL1, bs.GoodL2
	e.grace[id] = bs.Grace
	e.emaInnov[id], e.emaErr[id] = bs.EMAInnov, bs.EMAErr
	e.sickStreak[id] = bs.SickStreak
	e.lastReq[id] = bs.LastRequested
	e.haveReq[id] = bs.HaveRequested
	e.fallbackEpochs[id], e.healthyStreak[id] = bs.FallbackEpochs, bs.HealthyStreak
	e.health[id] = bs.Health
}

// syncTwin writes lane id's live state back into its scalar twin (and
// the twin's inner controller), making the scalar objects authoritative
// as of now. The actuation fields are the fast path's invariants.
func (e *SupEngine) syncTwin(id int) {
	e.twin[id].SetBatchState(supervisor.BatchState{
		Mode:           supervisor.ModeEngaged,
		IPSTarget:      e.supIPSTgt[id],
		PowerTarget:    e.supPowTgt[id],
		GoodIPS:        e.goodIPS[id],
		GoodPower:      e.goodPower[id],
		HaveGood:       e.haveGood[id],
		StaleIPS:       e.staleIPS[id],
		StalePower:     e.stalePower[id],
		GoodL1:         e.goodL1[id],
		GoodL2:         e.goodL2[id],
		Grace:          e.grace[id],
		EMAInnov:       e.emaInnov[id],
		EMAErr:         e.emaErr[id],
		SickStreak:     e.sickStreak[id],
		ApplyOK:        true,
		LastRequested:  e.lastReq[id],
		HaveRequested:  e.haveReq[id],
		FallbackEpochs: e.fallbackEpochs[id],
		HealthyStreak:  e.healthyStreak[id],
		Health:         e.health[id],
	})
	_ = e.mimo.ExtractTo(id, e.innerMC[id])
}

// evict parks the lane on its scalar twin. Call only with the SoA state
// un-mutated for the epoch being evicted: the twin replays it whole.
func (e *SupEngine) evict(id int) {
	e.syncTwin(id)
	e.parked[id] = true
}

// maybeReadmit returns an evicted lane to the fast path once its twin
// is back on the nominal engaged path (hysteretic re-engagement done,
// actuation healthy, no retry in flight).
func (e *SupEngine) maybeReadmit(id int) {
	tw := e.twin[id]
	if !tw.Nominal() || tw.FlightRecorder() != nil {
		return
	}
	if err := e.mimo.SetLaneState(id, e.innerMC[id].BatchState()); err != nil {
		return
	}
	e.loadSup(id, tw.BatchState())
	e.parked[id] = false
}

// Flush makes the scalar twin (and its inner controller) hold lane id's
// final state, so post-run reads — Health, Mode, further scalar
// stepping — see the batched run. Parked lanes are already current.
func (e *SupEngine) Flush(id int) {
	if !e.parked[id] {
		e.syncTwin(id)
	}
}

// SetTargets applies the scalar supervisor's SetTargets semantics to
// lane id: non-finite targets are dropped before they can reach the
// inner controller; accepted ones re-arm the alarm grace period. The
// inner lane applies its own TrySetTargets rules (negative targets are
// rejected there and counted, exactly as scalar).
func (e *SupEngine) SetTargets(id int, ips, power float64) {
	if e.parked[id] {
		e.twin[id].SetTargets(ips, power)
		return
	}
	if math.IsNaN(ips) || math.IsInf(ips, 0) || math.IsNaN(power) || math.IsInf(power, 0) {
		return
	}
	e.supIPSTgt[id], e.supPowTgt[id] = ips, power
	_ = e.mimo.trySetTargets(id, ips, power)
	e.grace[id] = e.opts[id].GraceEpochs
}

// Targets returns lane id's supervisor-level references.
func (e *SupEngine) Targets(id int) (ips, power float64) {
	if e.parked[id] {
		return e.twin[id].Targets()
	}
	return e.supIPSTgt[id], e.supPowTgt[id]
}

// Reset restores lane id to the post-Reset scalar state (mode engaged,
// counters zeroed, fresh grace period, inner controller reset) and
// re-admits it to the fast path.
func (e *SupEngine) Reset(id int) {
	if !e.parked[id] {
		e.syncTwin(id)
		e.parked[id] = true
	}
	e.twin[id].Reset()
	e.maybeReadmit(id)
}

// ObserveApply feeds one Apply outcome to lane id with the scalar
// ApplyObserver semantics. A success on the fast path is a no-op (the
// fast path's actuation state is the healthy fixed point); a failure
// leaves the nominal path, so the lane is evicted and the twin absorbs
// the failure — retry, backoff, and apply-triggered fallback then run
// scalar until re-admission.
func (e *SupEngine) ObserveApply(id int, cfg sim.Config, err error) {
	if e.parked[id] {
		e.twin[id].ObserveApply(cfg, err)
		return
	}
	if err == nil {
		return
	}
	e.evict(id)
	e.twin[id].ObserveApply(cfg, err)
}

// Health returns lane id's supervisor counters, folding in the inner
// controller's absorbed-error count exactly as the scalar Health does.
func (e *SupEngine) Health(id int) supervisor.Health {
	if e.parked[id] {
		return e.twin[id].Health()
	}
	h := e.health[id]
	h.InnerStepErrors = e.mimo.health[id].StepErrors
	return h
}

// Mode returns lane id's operating mode (fast-path lanes are engaged by
// construction).
func (e *SupEngine) Mode(id int) supervisor.Mode {
	if e.parked[id] {
		return e.twin[id].Mode()
	}
	return supervisor.ModeEngaged
}

// StepAll advances every live lane one supervised control epoch; see
// Engine.StepAll for the slice contract. Fast-path lanes run the fused
// kernel; parked lanes step their scalar twin. Fleet observability
// events are accumulated across the epoch and published through one
// bulk bus reservation. Allocation-free on the nominal path once the
// event scratch has grown to the fleet's observed-lane count.
func (e *SupEngine) StepAll(tels []sim.Telemetry, out []sim.Config) error {
	m := len(e.mimo.active)
	if len(tels) < m || len(out) < m {
		return fmt.Errorf("batch: need %d telemetry/output slots, have %d/%d", m, len(tels), len(out))
	}
	e.events = e.events[:0]
	base := 0
	for ; base+UnrollWidth <= m; base += UnrollWidth {
		for i := base; i < base+UnrollWidth; i++ {
			if e.mimo.active[i] {
				e.stepInto(i, tels, out, &e.events)
			}
		}
	}
	for i := base; i < m; i++ {
		if e.mimo.active[i] {
			e.stepInto(i, tels, out, &e.events)
		}
	}
	if len(e.events) > 0 {
		e.bus.PublishBatch(e.events)
	}
	return nil
}

// stepInto advances lane i. A fast-path lane on the engine's bus fills
// its event in place, in the next slot of the epoch batch evs.
func (e *SupEngine) stepInto(i int, tels []sim.Telemetry, out []sim.Config, evs *[]obs.Event) {
	if e.parked[i] {
		e.maybeReadmit(i)
		if e.parked[i] {
			out[i] = e.twin[i].Step(tels[i])
			return
		}
	}
	if lb := e.loopBus[i]; lb != e.bus {
		// A lane wired to a different fleet's bus (unusual) keeps the
		// scalar per-event publish.
		var ev obs.Event
		cfg, filled := e.supStep(i, &tels[i], &ev)
		out[i] = cfg
		if filled {
			lb.Publish(&ev)
		}
		return
	}
	// Claim the next slot without zeroing it: supStep writes every
	// field of the event it fills.
	n := len(*evs)
	if n < cap(*evs) {
		*evs = (*evs)[:n+1]
	} else {
		*evs = append(*evs, obs.Event{})
	}
	cfg, filled := e.supStep(i, &tels[i], &(*evs)[n])
	out[i] = cfg
	if !filled {
		*evs = (*evs)[:n]
	}
}

// StepLane advances one lane, returning its chosen configuration.
func (e *SupEngine) StepLane(id int, t sim.Telemetry) sim.Config {
	if e.parked[id] {
		e.maybeReadmit(id)
		if e.parked[id] {
			return e.twin[id].Step(t)
		}
	}
	var ev obs.Event
	cfg, filled := e.supStep(id, &t, &ev)
	if filled {
		e.loopBus[id].Publish(&ev)
	}
	return cfg
}

// supStep is the fused nominal-path kernel: the line-for-line
// transcription of supervisor.Supervised.Step's engaged/healthy path
// (sanitize → dead-channel and model-health checks → inner LQG kernel →
// monitor feed → validation → epoch record) against the SoA state.
//
// The first half runs PURE — sanitize results, staleness, alarm EMAs,
// and the sick streak are computed in locals. If the epoch would enter
// fallback, nothing has been committed yet: the lane evicts and the
// scalar twin replays the epoch from the identical pre-epoch state, so
// the transition (counter increments, mode change, safe config) is
// byte-for-byte the scalar path's. Otherwise the locals commit and the
// inner kernel runs.
//
// It returns the chosen configuration and whether ev was filled with a
// fleet observability event to publish.
func (e *SupEngine) supStep(id int, t *sim.Telemetry, ev *obs.Event) (sim.Config, bool) {
	o := &e.opts[id]
	ipsTgt, powTgt := e.supIPSTgt[id], e.supPowTgt[id]

	// sanitize(), in locals.
	ipsOK := supPlausible(t.IPS, o.MinIPS, o.MaxIPS)
	powerOK := supPlausible(t.PowerW, o.MinPowerW, o.MaxPowerW)
	sanIPS, sanPow := t.IPS, t.PowerW
	goodI, goodP := e.goodIPS[id], e.goodPower[id]
	staleI, staleP := e.staleIPS[id], e.stalePower[id]
	if ipsOK {
		goodI = t.IPS
		staleI = 0
	} else {
		staleI++
		if e.haveGood[id] {
			sanIPS = e.goodIPS[id]
		} else {
			sanIPS = ipsTgt
		}
	}
	if powerOK {
		goodP = t.PowerW
		staleP = 0
	} else {
		staleP++
		if e.haveGood[id] {
			sanPow = e.goodPower[id]
		} else {
			sanPow = powTgt
		}
	}
	haveGood := e.haveGood[id] || (ipsOK && powerOK)
	sanL1, sanL2 := t.L1MPKI, t.L2MPKI
	goodL1, goodL2 := e.goodL1[id], e.goodL2[id]
	if supFinite(t.L1MPKI) && t.L1MPKI >= 0 {
		goodL1 = t.L1MPKI
	} else {
		sanL1 = e.goodL1[id]
	}
	if supFinite(t.L2MPKI) && t.L2MPKI >= 0 {
		goodL2 = t.L2MPKI
	} else {
		sanL2 = e.goodL2[id]
	}

	// Dead-channel and model-health checks, in locals.
	dead := staleI > o.MaxStaleEpochs || staleP > o.MaxStaleEpochs
	sick := dead
	grace := e.grace[id]
	emaInnov, emaErr := e.emaInnov[id], e.emaErr[id]
	innovAlarm, divAlarm, monAlarm := false, false, false
	if grace > 0 {
		grace--
	} else {
		// relInnovation on the previous epoch's innovation (the lane's
		// lastInnov slot — the scalar path reads it through
		// LastInnovation, which allocates a copy; the SoA read is the
		// same two floats). The MIMO innovation always has both
		// channels, so the scalar v >= 0 guard always passes.
		li := e.mimo.lastInnov[id*strideY : id*strideY+2 : id*strideY+2]
		iScale := math.Max(ipsTgt, 0.5)
		pScale := math.Max(powTgt, 0.5)
		v := math.Max(math.Abs(li[0])/iScale, math.Abs(li[1])/pScale)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 10 * o.InnovationLimit
		}
		emaInnov += o.InnovationAlpha * (v - emaInnov)
		if emaInnov > o.InnovationLimit {
			innovAlarm = true
			sick = true
		}
		// relError on the sanitized measurements.
		re := 0.0
		if ipsTgt > 0 {
			re = math.Abs(sanIPS-ipsTgt) / ipsTgt
		}
		if powTgt > 0 {
			if ep := math.Abs(sanPow-powTgt) / powTgt; ep > re {
				re = ep
			}
		}
		emaErr += o.DivergenceAlpha * (re - emaErr)
		if emaErr > o.DivergenceLimit {
			divAlarm = true
			sick = true
		}
		if e.mon[id].Level() == health.LevelFail {
			monAlarm = true
			sick = true
		}
	}
	sickStreak := e.sickStreak[id]
	if sick {
		sickStreak++
	} else {
		sickStreak = 0
	}
	if sickStreak >= o.FallbackAfter {
		// Fallback entry leaves the nominal fast path. Nothing has been
		// committed: evict and let the twin replay the epoch whole.
		e.evict(id)
		return e.twin[id].Step(*t), false
	}

	// Commit the supervisor state transition.
	h := &e.health[id]
	h.Epochs++
	if !ipsOK {
		h.SanitizedIPS++
	}
	if !powerOK {
		h.SanitizedPower++
	}
	if dead {
		h.DeadSensorEpochs++
	}
	if innovAlarm {
		h.InnovationAlarms++
	}
	if divAlarm {
		h.DivergenceAlarms++
	}
	if monAlarm {
		h.ModelHealthAlarms++
	}
	e.goodIPS[id], e.goodPower[id] = goodI, goodP
	e.staleIPS[id], e.stalePower[id] = staleI, staleP
	e.haveGood[id] = haveGood
	e.goodL1[id], e.goodL2[id] = goodL1, goodL2
	e.grace[id] = grace
	e.emaInnov[id], e.emaErr[id] = emaInnov, emaErr
	e.sickStreak[id] = sickStreak

	// Inner controller on the sanitized telemetry: the fused LQG +
	// quantize kernel.
	st := *t
	st.IPS, st.PowerW = sanIPS, sanPow
	st.L1MPKI, st.L2MPKI = sanL1, sanL2
	var cfg sim.Config
	if e.mimo.three[id] {
		cfg = e.mimo.step3(id, &st)
	} else {
		cfg = e.mimo.step2(id, &st)
	}

	// observeModelHealth() on the fresh innovation (nil-safe monitor).
	li := e.mimo.lastInnov[id*strideY : id*strideY+2 : id*strideY+2]
	e.mon[id].Observe(li[0], li[1])

	illegal := false
	if err := cfg.Validate(); err != nil {
		h.IllegalConfigs++
		cfg = st.Config
		illegal = true
	}
	e.lastReq[id] = cfg
	e.haveReq[id] = true

	// endEpoch(): the bus record of an engaged epoch. The inner's own
	// internals (continuous request, excess) stay NaN on the bus.
	l := e.loop[id]
	if l == nil {
		return cfg, false
	}
	flags := obs.FlagSupervised
	if !ipsOK {
		flags |= obs.FlagSanitizedIPS
	}
	if !powerOK {
		flags |= obs.FlagSanitizedPower
	}
	if illegal {
		flags |= obs.FlagIllegalConfig
	}
	// relInnovation of the fresh innovation.
	iScale := math.Max(ipsTgt, 0.5)
	pScale := math.Max(powTgt, 0.5)
	innovNorm := math.Max(math.Abs(li[0])/iScale, math.Abs(li[1])/pScale)
	if math.IsNaN(innovNorm) || math.IsInf(innovNorm, 0) {
		innovNorm = 10 * o.InnovationLimit
	}
	// Field by field rather than a composite literal, so the slot is
	// written in place instead of through a zeroed temporary and a copy.
	// LoopID and Epoch are stamped by ObserveInto.
	nan := math.NaN()
	ev.Flags, ev.Mode, ev.Health, ev.Adapt = flags, obs.ModeEngaged, uint8(e.mon[id].Level()), 0
	ev.IPSTarget, ev.PowerTarget = ipsTgt, powTgt
	ev.IPS, ev.PowerW, ev.TrueIPS, ev.TruePowerW = sanIPS, sanPow, t.TrueIPS, t.TruePowerW
	ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm = li[0], li[1], innovNorm
	ev.ExcessNorm, ev.Guardband, ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries = nan, nan, nan, nan, nan
	ev.ReqFreq, ev.ReqCache, ev.ReqROB = int16(cfg.FreqIdx), int16(cfg.CacheIdx), int16(cfg.ROBIdx)
	ev.CfgFreq, ev.CfgCache, ev.CfgROB = int16(t.Config.FreqIdx), int16(t.Config.CacheIdx), int16(t.Config.ROBIdx)
	if mon := e.mon[id]; mon != nil {
		ev.Guardband = mon.Snapshot().GuardbandConsumption
	}
	return cfg, l.ObserveInto(ev)
}

func supFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func supPlausible(v, lo, hi float64) bool { return supFinite(v) && v >= lo && v <= hi }
