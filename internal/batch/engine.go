package batch

import (
	"errors"
	"fmt"
	"math"

	"mimoctl/internal/core"
	"mimoctl/internal/lqg"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
)

// Fixed problem shape (the paper's plant: Table III knobs, §IV-B2
// outputs, §VI-A2 model dimension). The kernels are hand-specialized
// for it; FromControllers rejects anything else so callers fall back to
// the scalar path.
const (
	Order     = 4 // model states
	Outputs   = 2 // IPS, power
	MaxInputs = 3 // frequency, cache ways, ROB (2-input variant omits ROB)

	// UnrollWidth is the lane-block size StepAll processes per
	// iteration of its main loop; fleets of any size work (a tail loop
	// covers the remainder), the constant only shapes the hot loop.
	UnrollWidth = 4
)

// Per-field lane strides of the structure-of-arrays layout. Every lane
// occupies the same fixed-size slot in each array regardless of its
// input count; 2-input lanes simply leave the tail of input-shaped
// slots unused.
const (
	strideA  = Order * Order         // 16
	strideB  = Order * MaxInputs     // 12
	strideC  = Outputs * Order       // 8
	strideKx = MaxInputs * Order     // 12
	strideKu = MaxInputs * MaxInputs // 9
	strideKz = MaxInputs * Outputs   // 6
	strideLc = Order * Outputs       // 8
	strideTG = (Order + MaxInputs) * Outputs // 14
	strideU  = MaxInputs // uPrev, uss, lastExcess, U0
	strideY  = Outputs   // zInt, ref, lastInnov, Y0
	strideX  = Order     // xhat, xss
)

// Engine holds N controllers' state in contiguous per-field arrays and
// steps them with fused fixed-size kernels. Lane ids are stable: Add
// returns an id that stays valid until Retire, and retired slots are
// reused by later Adds. An Engine is not safe for concurrent use; shard
// fleets across engines (or use StepAllSharded) for parallelism.
type Engine struct {
	// Design state, lane-major at the strides above.
	a, b, c    []float64
	kx, ku, kz []float64
	lc, tg     []float64
	u0, y0     []float64

	// Runtime state, lane-major.
	xhat, xss               []float64
	uPrev, uss, lastExcess  []float64
	zInt, ref, lastInnov    []float64
	ipsTgt, powTgt          []float64
	cur                     []sim.Config
	health                  []core.Health
	three, antiWindup       []bool
	haveCur, active         []bool

	free []int // retired slots available for reuse
	n    int   // live lanes
	q    quantTables
}

// New returns an empty engine; load lanes with Add or FromControllers.
func New() *Engine {
	return &Engine{q: newQuantTables()}
}

// Len returns the number of live lanes.
func (e *Engine) Len() int { return e.n }

// Slots returns the number of allocated lane slots (live + retired).
// Lane ids are in [0, Slots()); StepAll's telemetry and output slices
// are indexed by lane id, so they must be at least this long.
func (e *Engine) Slots() int { return len(e.active) }

// Active reports whether id addresses a live lane.
func (e *Engine) Active(id int) bool {
	return id >= 0 && id < len(e.active) && e.active[id]
}

func (e *Engine) inputs(id int) int {
	if e.three[id] {
		return 3
	}
	return 2
}

// Add loads one controller snapshot into a lane and returns its id.
// Only the paper's configuration is batchable: ΔU + integral LQG servo,
// model order 4, outputs [IPS, power], 2 or 3 inputs. Anything else —
// ablation variants, foreign shapes — is rejected so the caller keeps
// it on the scalar path.
func (e *Engine) Add(s core.BatchState) (int, error) {
	if err := validateState(s); err != nil {
		return -1, err
	}
	id := e.allocLane()
	e.load(id, s)
	e.active[id] = true
	e.n++
	return id, nil
}

// validateState checks a controller snapshot against the fixed shapes
// the kernels are specialized for.
func validateState(s core.BatchState) error {
	ni := 2
	if s.ThreeInput {
		ni = 3
	}
	if !s.Opts.DeltaU || !s.Opts.Integral {
		return errors.New("batch: only the ΔU+integral servo structure is batchable")
	}
	if s.A == nil || s.A.Rows() != Order || s.A.Cols() != Order ||
		s.B == nil || s.B.Rows() != Order || s.B.Cols() != ni ||
		s.C == nil || s.C.Rows() != Outputs || s.C.Cols() != Order {
		return fmt.Errorf("batch: plant shape not %dx%dx%d", Order, ni, Outputs)
	}
	if s.Kx == nil || s.Kx.Rows() != ni || s.Kx.Cols() != Order ||
		s.Ku == nil || s.Ku.Rows() != ni || s.Ku.Cols() != ni ||
		s.Kz == nil || s.Kz.Rows() != ni || s.Kz.Cols() != Outputs ||
		s.Lc == nil || s.Lc.Rows() != Order || s.Lc.Cols() != Outputs ||
		s.TargetGain == nil || s.TargetGain.Rows() != Order+ni || s.TargetGain.Cols() != Outputs {
		return errors.New("batch: gain shapes do not match the specialized kernels")
	}
	if len(s.Offsets.U0) != ni || len(s.Offsets.Y0) != Outputs {
		return errors.New("batch: operating-point offsets do not match the input shape")
	}
	if len(s.LQG.Xhat) != Order || len(s.LQG.Xss) != Order ||
		len(s.LQG.UPrev) != ni || len(s.LQG.Uss) != ni || len(s.LQG.LastExcess) != ni ||
		len(s.LQG.ZInt) != Outputs || len(s.LQG.Ref) != Outputs || len(s.LQG.LastInnov) != Outputs {
		return errors.New("batch: runtime state does not match the plant shape")
	}
	if s.HaveCur {
		if err := s.Cur.Validate(); err != nil {
			return fmt.Errorf("batch: current config invalid: %w", err)
		}
	}
	return nil
}

// load copies a validated snapshot into lane id's slots.
func (e *Engine) load(id int, s core.BatchState) {
	copyMat(e.a[id*strideA:], s.A)
	copyMat(e.b[id*strideB:], s.B)
	copyMat(e.c[id*strideC:], s.C)
	copyMat(e.kx[id*strideKx:], s.Kx)
	copyMat(e.ku[id*strideKu:], s.Ku)
	copyMat(e.kz[id*strideKz:], s.Kz)
	copyMat(e.lc[id*strideLc:], s.Lc)
	copyMat(e.tg[id*strideTG:], s.TargetGain)
	copy(e.u0[id*strideU:], s.Offsets.U0)
	copy(e.y0[id*strideY:], s.Offsets.Y0)

	copy(e.xhat[id*strideX:], s.LQG.Xhat)
	copy(e.xss[id*strideX:], s.LQG.Xss)
	copy(e.uPrev[id*strideU:], s.LQG.UPrev)
	copy(e.uss[id*strideU:], s.LQG.Uss)
	copy(e.lastExcess[id*strideU:], s.LQG.LastExcess)
	copy(e.zInt[id*strideY:], s.LQG.ZInt)
	copy(e.ref[id*strideY:], s.LQG.Ref)
	copy(e.lastInnov[id*strideY:], s.LQG.LastInnov)
	e.ipsTgt[id], e.powTgt[id] = s.IPSTarget, s.PowerTarget
	e.cur[id] = s.Cur
	e.health[id] = s.Health
	e.three[id] = s.ThreeInput
	e.antiWindup[id] = !s.Opts.DisableAntiWindup
	e.haveCur[id] = s.HaveCur
}

// SetLaneState overwrites an active lane with a fresh controller
// snapshot (design and runtime), reusing the slot. The supervised
// tier's re-admission path uses it to reload a lane from the scalar
// twin that stepped through a fallback excursion.
func (e *Engine) SetLaneState(id int, s core.BatchState) error {
	if !e.Active(id) {
		return fmt.Errorf("batch: lane %d is not active", id)
	}
	if err := validateState(s); err != nil {
		return err
	}
	e.load(id, s)
	return nil
}

// allocLane reuses a retired slot or grows every array by one stride.
func (e *Engine) allocLane() int {
	if k := len(e.free); k > 0 {
		id := e.free[k-1]
		e.free = e.free[:k-1]
		return id
	}
	id := len(e.active)
	e.a = append(e.a, make([]float64, strideA)...)
	e.b = append(e.b, make([]float64, strideB)...)
	e.c = append(e.c, make([]float64, strideC)...)
	e.kx = append(e.kx, make([]float64, strideKx)...)
	e.ku = append(e.ku, make([]float64, strideKu)...)
	e.kz = append(e.kz, make([]float64, strideKz)...)
	e.lc = append(e.lc, make([]float64, strideLc)...)
	e.tg = append(e.tg, make([]float64, strideTG)...)
	e.u0 = append(e.u0, make([]float64, strideU)...)
	e.y0 = append(e.y0, make([]float64, strideY)...)
	e.xhat = append(e.xhat, make([]float64, strideX)...)
	e.xss = append(e.xss, make([]float64, strideX)...)
	e.uPrev = append(e.uPrev, make([]float64, strideU)...)
	e.uss = append(e.uss, make([]float64, strideU)...)
	e.lastExcess = append(e.lastExcess, make([]float64, strideU)...)
	e.zInt = append(e.zInt, make([]float64, strideY)...)
	e.ref = append(e.ref, make([]float64, strideY)...)
	e.lastInnov = append(e.lastInnov, make([]float64, strideY)...)
	e.ipsTgt = append(e.ipsTgt, 0)
	e.powTgt = append(e.powTgt, 0)
	e.cur = append(e.cur, sim.Config{})
	e.health = append(e.health, core.Health{})
	e.three = append(e.three, false)
	e.antiWindup = append(e.antiWindup, false)
	e.haveCur = append(e.haveCur, false)
	e.active = append(e.active, false)
	return id
}

// Retire removes a lane; its id becomes invalid and the slot is reused
// by a later Add. Retiring mid-epoch is safe: StepAll skips the slot
// from the next call on.
func (e *Engine) Retire(id int) error {
	if !e.Active(id) {
		return fmt.Errorf("batch: lane %d is not active", id)
	}
	e.active[id] = false
	e.free = append(e.free, id)
	e.n--
	return nil
}

// FromControllers loads a fleet of scalar controllers into a fresh
// engine; lane i holds ctrls[i]. Controllers with an attached flight
// recorder are rejected (the batch path does not record), as is any
// shape the kernels are not specialized for.
func FromControllers(ctrls []*core.MIMOController) (*Engine, error) {
	e := New()
	for i, mc := range ctrls {
		if mc.FlightRecorder() != nil {
			return nil, fmt.Errorf("batch: controller %d has a flight recorder attached", i)
		}
		if _, err := e.Add(mc.BatchState()); err != nil {
			return nil, fmt.Errorf("batch: controller %d: %w", i, err)
		}
	}
	return e, nil
}

// FromController loads a single controller, returning its lane id.
func FromController(mc *core.MIMOController) (*Engine, int, error) {
	if mc.FlightRecorder() != nil {
		return nil, -1, errors.New("batch: controller has a flight recorder attached")
	}
	e := New()
	id, err := e.Add(mc.BatchState())
	if err != nil {
		return nil, -1, err
	}
	return e, id, nil
}

// ExtractTo stores lane id's runtime state back into mc, which must
// have the shape the lane was loaded from. The lane stays live.
func (e *Engine) ExtractTo(id int, mc *core.MIMOController) error {
	if !e.Active(id) {
		return fmt.Errorf("batch: lane %d is not active", id)
	}
	ni := e.inputs(id)
	s := core.BatchState{
		ThreeInput: e.three[id],
		LQG: lqg.RuntimeState{
			Xhat:       append([]float64(nil), e.xhat[id*strideX:id*strideX+Order]...),
			Xss:        append([]float64(nil), e.xss[id*strideX:id*strideX+Order]...),
			UPrev:      append([]float64(nil), e.uPrev[id*strideU:id*strideU+ni]...),
			Uss:        append([]float64(nil), e.uss[id*strideU:id*strideU+ni]...),
			LastExcess: append([]float64(nil), e.lastExcess[id*strideU:id*strideU+ni]...),
			ZInt:       append([]float64(nil), e.zInt[id*strideY:id*strideY+Outputs]...),
			Ref:        append([]float64(nil), e.ref[id*strideY:id*strideY+Outputs]...),
			LastInnov:  append([]float64(nil), e.lastInnov[id*strideY:id*strideY+Outputs]...),
		},
		IPSTarget:   e.ipsTgt[id],
		PowerTarget: e.powTgt[id],
		Cur:         e.cur[id],
		HaveCur:     e.haveCur[id],
		Health:      e.health[id],
	}
	return mc.SetBatchState(s)
}

// Offsets returns copies of lane id's operating-point offsets.
func (e *Engine) Offsets(id int) sysid.Offsets {
	ni := e.inputs(id)
	return sysid.Offsets{
		U0: append([]float64(nil), e.u0[id*strideU:id*strideU+ni]...),
		Y0: append([]float64(nil), e.y0[id*strideY:id*strideY+Outputs]...),
	}
}

// SetTargets updates lane id's output references with the scalar path's
// TrySetTargets semantics: non-finite or negative targets are rejected,
// counted in the lane's health, and leave the previous references in
// effect.
func (e *Engine) SetTargets(id int, ips, power float64) error {
	if !e.Active(id) {
		return fmt.Errorf("batch: lane %d is not active", id)
	}
	return e.trySetTargets(id, ips, power)
}

func (e *Engine) trySetTargets(id int, ips, power float64) error {
	if math.IsNaN(ips) || math.IsInf(ips, 0) || math.IsNaN(power) || math.IsInf(power, 0) {
		e.health[id].TargetErrors++
		return fmt.Errorf("batch: non-finite targets (%v BIPS, %v W)", ips, power)
	}
	if ips < 0 || power < 0 {
		e.health[id].TargetErrors++
		return fmt.Errorf("batch: negative targets (%v BIPS, %v W)", ips, power)
	}
	y0 := e.y0[id*strideY : id*strideY+Outputs : id*strideY+Outputs]
	ref := e.ref[id*strideY : id*strideY+Outputs : id*strideY+Outputs]
	r0 := ips - y0[0]
	r1 := power - y0[1]
	ref[0], ref[1] = r0, r1
	// SetReference: [x_ss; u_ss] = targetGain · r, row by row in
	// MulVecInto's accumulation order.
	ni := e.inputs(id)
	tg := e.tg[id*strideTG : id*strideTG+(Order+ni)*Outputs]
	xss := e.xss[id*strideX : id*strideX+Order : id*strideX+Order]
	uss := e.uss[id*strideU : id*strideU+ni : id*strideU+ni]
	for r := 0; r < Order+ni; r++ {
		var s float64
		s += tg[r*2] * r0
		s += tg[r*2+1] * r1
		if r < Order {
			xss[r] = s
		} else {
			uss[r-Order] = s
		}
	}
	e.ipsTgt[id], e.powTgt[id] = ips, power
	return nil
}

// Targets returns lane id's current references.
func (e *Engine) Targets(id int) (ips, power float64) {
	return e.ipsTgt[id], e.powTgt[id]
}

// Health returns lane id's absorbed-error counters.
func (e *Engine) Health(id int) core.Health { return e.health[id] }

// Config returns the configuration lane id last settled on.
func (e *Engine) Config(id int) sim.Config { return e.cur[id] }

// Reset clears lane id's runtime state exactly as the scalar Reset
// does: estimator, integrators, previous input, and health are zeroed;
// the stored targets are re-applied.
func (e *Engine) Reset(id int) {
	zero(e.xhat[id*strideX : id*strideX+Order])
	zero(e.xss[id*strideX : id*strideX+Order])
	zero(e.uPrev[id*strideU : id*strideU+MaxInputs])
	zero(e.uss[id*strideU : id*strideU+MaxInputs])
	zero(e.lastExcess[id*strideU : id*strideU+MaxInputs])
	zero(e.zInt[id*strideY : id*strideY+Outputs])
	zero(e.ref[id*strideY : id*strideY+Outputs])
	zero(e.lastInnov[id*strideY : id*strideY+Outputs])
	e.haveCur[id] = false
	e.health[id] = core.Health{}
	_ = e.trySetTargets(id, e.ipsTgt[id], e.powTgt[id])
}

// StepAll advances every live lane one control epoch: lane i consumes
// tels[i] and its chosen configuration is stored into out[i]. Both
// slices are indexed by lane id and must be at least Slots() long;
// retired slots are skipped and their out entries left untouched.
// StepAll performs no heap allocation.
func (e *Engine) StepAll(tels []sim.Telemetry, out []sim.Config) error {
	m := len(e.active)
	if len(tels) < m || len(out) < m {
		return fmt.Errorf("batch: need %d telemetry/output slots, have %d/%d", m, len(tels), len(out))
	}
	e.stepRange(0, m, tels, out)
	return nil
}

// stepRange advances the live lanes in slot range [lo, hi). Lanes are
// fully independent, so disjoint ranges may run concurrently (the
// sharded driver relies on this).
func (e *Engine) stepRange(lo, hi int, tels []sim.Telemetry, out []sim.Config) {
	base := lo
	for ; base+UnrollWidth <= hi; base += UnrollWidth {
		for i := base; i < base+UnrollWidth; i++ {
			if !e.active[i] {
				continue
			}
			// The shape dispatch is written out here rather than through
			// step(): the two-way call chain is too large to inline, and
			// this loop is the fleet hot path.
			if e.three[i] {
				out[i] = e.step3(i, &tels[i])
			} else {
				out[i] = e.step2(i, &tels[i])
			}
		}
	}
	for i := base; i < hi; i++ {
		if e.active[i] {
			out[i] = e.step(i, &tels[i])
		}
	}
}

// StepLane advances one lane, returning its chosen configuration.
func (e *Engine) StepLane(id int, t sim.Telemetry) sim.Config {
	return e.step(id, &t)
}

func (e *Engine) step(id int, t *sim.Telemetry) sim.Config {
	if e.three[id] {
		return e.step3(id, t)
	}
	return e.step2(id, t)
}

func copyMat(dst []float64, m interface {
	Rows() int
	Cols() int
	At(i, j int) float64
}) {
	rows, cols := m.Rows(), m.Cols()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[i*cols+j] = m.At(i, j)
		}
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
