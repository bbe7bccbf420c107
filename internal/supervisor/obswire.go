package supervisor

import (
	"math"

	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
)

// Observability wiring: when a fleet loop handle is attached, every
// Step publishes one wide obs.Sample — the per-epoch record the fleet
// plane scores against the control SLOs and (when a bus is attached)
// ships as an event. A nil handle keeps the whole path inert; with one
// attached the cost is one fixed-size struct fill plus the fleet's
// allocation-free Observe.

// SetLoopObs attaches (or, with nil, detaches) the fleet observability
// handle for this supervisor's loop.
func (s *Supervised) SetLoopObs(l *obs.Loop) { s.loopObs = l }

// LoopObs returns the attached fleet loop handle (nil when detached).
func (s *Supervised) LoopObs() *obs.Loop { return s.loopObs }

// obsFlags maps this epoch's supervisor evidence to Event flag bits.
func (s *Supervised) obsFlags(clean bool) uint8 {
	var f uint8
	if !clean {
		f |= obs.FlagSanitized
	}
	if !s.applyOK {
		f |= obs.FlagApplyError
	}
	if s.mode == ModeFallback {
		f |= obs.FlagFallback
	}
	return f
}

// publishObs hands the epoch to the fleet plane. t carries the
// sanitized measurements; innov is the worst-channel relative Kalman
// innovation (NaN on epochs the inner controller did not step).
func (s *Supervised) publishObs(t *sim.Telemetry, cfg sim.Config, flags uint8, innov float64) {
	l := s.loopObs
	if l == nil {
		return
	}
	guard := math.NaN()
	if mon := s.opts.ModelHealth; mon != nil {
		guard = mon.Snapshot().GuardbandConsumption
	}
	var adaptState uint8
	if s.adapter != nil {
		adaptState = uint8(s.adapter.State())
	}
	l.Observe(obs.Sample{
		Mode:        uint8(s.mode),
		Health:      uint8(s.opts.ModelHealth.Level()),
		Adapt:       adaptState,
		Flags:       flags,
		IPSTarget:   s.ipsTarget,
		PowerTarget: s.powerTarget,
		IPS:         t.IPS,
		PowerW:      t.PowerW,
		InnovNorm:   innov,
		Guardband:   guard,
		ReqFreq:     int16(cfg.FreqIdx),
		ReqCache:    int16(cfg.CacheIdx),
		ReqROB:      int16(cfg.ROBIdx),
	})
}

// lastInnovNorm returns the freshly stepped inner controller's relative
// innovation magnitude, NaN when unavailable. Allocation-free via the
// shared scratch buffer.
func (s *Supervised) lastInnovNorm() float64 {
	if v := s.relInnovation(s.lastInnovation()); v >= 0 {
		return v
	}
	return math.NaN()
}
