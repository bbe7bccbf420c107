package supervisor

import (
	"math"

	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
)

// Per-epoch record wiring: every step ends in endEpoch, which fills one
// obs.Event for the flight ring and the fleet plane. With neither
// attached nothing is filled; with either, the cost is one fixed-size
// struct fill plus the ring append, the fleet's allocation-free
// ObserveInto and the bus publish.

// SetLoopObs attaches (or, with nil, detaches) the fleet observability
// handle for this supervisor's loop. Attach before BindTelemetry, which
// reads supervisor_epochs_total from the loop attached when it binds.
func (s *Supervised) SetLoopObs(l *obs.Loop) { s.loopObs = l }

// LoopObs returns the attached fleet loop handle (nil when detached).
func (s *Supervised) LoopObs() *obs.Loop { return s.loopObs }

// endEpoch fills ev with the epoch's record, appends it to the flight
// ring and folds it into the fleet loop, and reports whether ev must be
// published on the loop's bus. t carries the sanitized measurements, req
// the configuration issued, flags the supervisor's evidence for this
// epoch, and innov the inner controller's fresh innovation (nil on
// epochs it did not step). On an epoch a MIMO inner stepped, its
// internals (continuous request, excess, step error, undriven ROB knob)
// come from core.MIMOController.FillInternals; otherwise they are NaN.
// The ring copies ev before the fleet loop stamps LoopID, Epoch and
// FlagTargetChange on it, so attaching a fleet never changes a ring.
func (s *Supervised) endEpoch(t *sim.Telemetry, ev *obs.Event, req sim.Config, flags uint32, mode uint8, innov []float64) bool {
	if s.rec == nil && s.loopObs == nil {
		return false
	}
	// Every field is written: ev may be a reused slot.
	nan := math.NaN()
	ev.Epoch, ev.LoopID = 0, 0
	ev.Flags, ev.Mode, ev.Health, ev.Adapt = flags, mode, uint8(s.monitor.Level()), 0
	ev.IPSTarget, ev.PowerTarget = s.ipsTarget, s.powerTarget
	ev.IPS, ev.PowerW, ev.TrueIPS, ev.TruePowerW = t.IPS, t.PowerW, t.TrueIPS, t.TruePowerW
	ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm = nan, nan, nan
	ev.ExcessNorm, ev.Guardband, ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries = nan, nan, nan, nan, nan
	ev.ReqFreq, ev.ReqCache, ev.ReqROB = int16(req.FreqIdx), int16(req.CacheIdx), int16(req.ROBIdx)
	ev.CfgFreq, ev.CfgCache, ev.CfgROB = int16(t.Config.FreqIdx), int16(t.Config.CacheIdx), int16(t.Config.ROBIdx)
	if v := s.relInnovation(innov); v >= 0 {
		ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm = innov[0], innov[1], v
	}
	if s.mimo != nil && innov != nil {
		s.mimo.FillInternals(ev)
	}
	if s.monitor != nil {
		ev.Guardband = s.monitor.Snapshot().GuardbandConsumption
	}
	if s.adapter != nil {
		ev.Adapt = uint8(s.adapter.State())
	}
	s.rec.Append(ev)
	return s.loopObs.ObserveInto(ev)
}
