// Package obs is the fleet observability plane: per-loop telemetry
// scopes, wide per-epoch events, and an online control-SLO engine with
// multi-window burn-rate alerting.
//
// The rest of the observability stack answers "what is this process
// doing" (telemetry.Registry), "what did this one loop do, exactly"
// (flightrec), and "does the model still match the plant"
// (health.Monitor). This package answers the fleet-scale question the
// control-plane work needs: out of thousands of concurrent loops, WHICH
// ones are failing their contract, and how fast are they burning
// through their error budget. The paper's formal guarantees — settling
// time, bounded overshoot, guardband-backed robustness — are exactly
// the observables a per-loop SLO can score online, so the fleet's
// status is the paper's pitch made operational.
//
// Three pieces:
//
//   - Fleet/Loop: a registry of control loops. Each registered loop
//     gets a telemetry scope (per-loop series under one exposition,
//     bounded cardinality via the registry's scope LRU) and an SLO
//     evaluator. The driving harness fills one Event per epoch and
//     calls Loop.Observe with it. The call folds the event into the
//     loop's state under one uncontended mutex and writes no
//     instrument: the per-loop series are functions of that state, read
//     when the registry is scraped. No allocation either way (gated by
//     TestObserveAllocFree).
//
//   - Bus: a lock-free bounded MPSC ring carrying one Event per
//     observed epoch per loop to a background consumer that fans out to
//     JSONL/CSV sinks and live /events subscribers. Back-pressure is a
//     counted drop, never a stall: the control loop outranks its
//     observers. This is the fleet-scale sibling of the flight recorder
//     — sampled rather than exhaustive, shared rather than per-loop.
//
//   - SLO engine: declarative objectives over control-theoretic signals
//     (tracking error, overshoot, settling, power-budget violation,
//     fallback ratio) evaluated per loop over multi-window burn rates,
//     surfaced via /slo and per-loop burn-rate series, and folded into
//     Fleet.Healthz.
//
// A fleet holds no process state: Healthz and Report read only
// the fleet's own loops at scrape time, so two fleets in one process
// (or two parallel tests) answer independently.
package obs

// Event is the one per-epoch record of one control loop: what the
// controller wanted (targets), what the sensors said (IPS, PowerW, after
// sanitization), what the plant really did (TrueIPS, TruePowerW), the
// controller internals of the step, and the knobs it requested and ran
// with. The flight recorder's ring stores it (internal/flightrec), the
// lossy bus carries it to the JSONL/CSV sinks, the SLO engine and the
// history store, and cmd/mimotrace prints it; one text codec
// (MarshalJSON, JSONLSink, CSVSink, Columns) encodes it everywhere.
//
// The struct is fixed-size and pointer-free, so a ring append or a bus
// publish is one copy and a dropped event loses one epoch of one loop,
// nothing more. NaN in a float field means "not computed this epoch"
// (the innovation on a fallback pin, the continuous request of a
// controller that did not step); IdxNA in a knob index means "knob not
// driven".
type Event struct {
	// Epoch counts from 1. The flight ring stamps it from its own append
	// sequence and the fleet loop from its observed-epoch count, so a
	// supervised loop's ring record and bus event of one epoch carry the
	// same number.
	Epoch uint64

	// References in effect.
	IPSTarget, PowerTarget float64
	// Measured outputs the controller saw (sanitized when a supervisor
	// substituted a reading) and the true, noiseless plant outputs.
	IPS, PowerW         float64
	TrueIPS, TruePowerW float64
	// Kalman innovation y - Cx̂ of the step, absolute units, and its
	// worst-channel magnitude relative to the targets.
	InnovIPS, InnovPowerW float64
	InnovNorm             float64
	// ExcessNorm is ‖u_requested − u_applied‖₂ from the LQG anti-windup
	// feedback: nonzero means quantization or range saturation bit.
	ExcessNorm float64
	// Guardband is the model-health monitor's guardband-consumption EMA.
	Guardband float64
	// Continuous actuation request in absolute units before
	// quantization.
	UFreqGHz, UL2Ways, UROBEntries float64

	// LoopID is the fleet-assigned loop id (stamped by Loop.Observe).
	LoopID uint32
	// Flags is the union of the Flag* bits observed this epoch.
	Flags uint32

	// ReqFreq/ReqCache/ReqROB are the quantized configuration indices
	// requested this epoch (for a supervised loop, the configuration the
	// supervisor issued); CfgFreq/CfgCache/CfgROB are the indices in
	// effect during the epoch (the previous request as the plant
	// actually applied it). A persistent Req[k] != Cfg[k+1] divergence
	// is the signature of a stuck actuator.
	ReqFreq, ReqCache, ReqROB int16
	CfgFreq, CfgCache, CfgROB int16

	// Mode is the supervisor mode (ModeEngaged for raw controllers);
	// Health the model-health level (0 ok, 1 warn, 2 fail); Adapt the
	// adaptation state machine position (0 when no adapter is attached).
	Mode, Health, Adapt uint8
}

// Flag bits on an Event.
const (
	// FlagSupervised marks an epoch that passed through the supervised
	// runtime (internal/supervisor).
	FlagSupervised uint32 = 1 << iota
	// FlagFallback marks an epoch pinned at the safe configuration.
	FlagFallback
	// FlagHold marks an actuation-backoff hold epoch: the inner
	// controller was not stepped and a previous request was held or
	// re-issued.
	FlagHold
	// FlagSanitizedIPS / FlagSanitizedPower mark epochs whose sensor
	// reading was implausible and substituted before the controller saw
	// it; IPS/PowerW hold the substituted value.
	FlagSanitizedIPS
	FlagSanitizedPower
	// FlagApplyError marks an epoch whose preceding actuation attempt
	// was reported failed.
	FlagApplyError
	// FlagStepError marks an inner-controller step failure; the previous
	// configuration was held.
	FlagStepError
	// FlagIllegalConfig marks an inner-controller output that failed
	// validation and was replaced by the in-effect configuration.
	FlagIllegalConfig
	// FlagExcitation marks an epoch whose issued configuration carries
	// deliberate identification dither from the adaptation loop
	// (internal/adapt).
	FlagExcitation
	// FlagAdaptSwap marks the epoch on which the adaptation loop
	// hot-swapped re-identified controller gains into the inner
	// controller.
	FlagAdaptSwap
	// FlagAdaptRevert marks the epoch on which a hot-swapped design
	// failed its post-swap probation and the previous gains were
	// restored.
	FlagAdaptRevert
	// FlagTargetChange marks the first observed epoch after a target
	// change (stamped by Loop.Observe; never in a flight ring).
	FlagTargetChange
)

// Modes recorded in Event.Mode (mirrors supervisor.Mode; a raw,
// unsupervised controller always records ModeEngaged).
const (
	ModeEngaged  uint8 = 0
	ModeFallback uint8 = 1
)

// IdxNA marks a knob index that does not apply to the record (e.g. the
// ROB knob of a 2-input controller).
const IdxNA int16 = -1
