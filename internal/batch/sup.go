// Package batch steps a fleet of supervised control loops one epoch at
// a time. Each loop runs the one controller step every loop in the
// repository runs — supervisor.Supervised.Step over
// core.MIMOController.Step over lqg.Controller.Step — so a fleet loop
// and a standalone loop fed the same telemetry make the same decisions
// and hold the same state. What the engine adds is the fleet epoch:
// the events of the loops on the first loop's bus go out in one
// Bus.PublishBatch.
package batch

import (
	"errors"
	"fmt"

	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
)

// SupEngine is a fleet of supervised loops, indexed by the ids Add
// returns. It is not safe for concurrent use.
type SupEngine struct {
	loops  []*supervisor.Supervised
	events []obs.Event // the epoch's batch for the fleet bus, reused
}

// NewSupervised returns an empty engine.
func NewSupervised() *SupEngine { return &SupEngine{} }

// Add appends a loop to the fleet and returns its id: 0 for the first
// loop, then 1, 2, …. Any supervised loop can join, whatever its inner
// controller, adapter or flight recorder. The engine steps the loop in
// place: its state stays in the loop, so Mode, Health and the rest
// read it directly, and the loop may be stepped outside the engine too.
func (e *SupEngine) Add(s *supervisor.Supervised) (int, error) {
	if s == nil {
		return -1, errors.New("batch: nil loop")
	}
	for _, l := range e.loops {
		if l == s {
			return -1, errors.New("batch: loop is already in the fleet")
		}
	}
	e.loops = append(e.loops, s)
	return len(e.loops) - 1, nil
}

// Parked reports whether loop id is off the nominal engaged path
// (supervisor.Supervised.Nominal): in fallback, or retrying or backing
// off a failed actuation.
func (e *SupEngine) Parked(id int) bool { return !e.loops[id].Nominal() }

// Health returns loop id's supervisor counters.
func (e *SupEngine) Health(id int) supervisor.Health { return e.loops[id].Health() }

// ObserveApply reports loop id's actuation outcome
// (supervisor.Supervised.ObserveApply).
func (e *SupEngine) ObserveApply(id int, cfg sim.Config, err error) {
	e.loops[id].ObserveApply(cfg, err)
}

// StepAll advances every loop one control epoch: loop i consumes
// tels[i] and its configuration is stored into out[i]. The fleet bus is
// the first loop's: each loop on it fills its event in place in the
// epoch's batch, which is published with one Bus.PublishBatch; a loop
// on another bus publishes its own. StepAll allocates nothing once the
// batch has grown to the fleet.
func (e *SupEngine) StepAll(tels []sim.Telemetry, out []sim.Config) error {
	n := len(e.loops)
	if len(tels) < n || len(out) < n {
		return fmt.Errorf("batch: need %d telemetry/output slots, have %d/%d", n, len(tels), len(out))
	}
	if n == 0 {
		return nil
	}
	bus := e.loops[0].LoopObs().Bus()
	evs := e.events[:0]
	for i, s := range e.loops {
		if s.LoopObs().Bus() != bus {
			out[i] = s.Step(tels[i])
			continue
		}
		// Claim the next slot without zeroing it: the step writes every
		// field of the event it fills.
		k := len(evs)
		if k < cap(evs) {
			evs = evs[:k+1]
		} else {
			evs = append(evs, obs.Event{})
		}
		var publish bool
		out[i], publish = s.StepEvent(tels[i], &evs[k])
		if !publish {
			evs = evs[:k]
		}
	}
	if len(evs) > 0 {
		bus.PublishBatch(evs)
	}
	e.events = evs
	return nil
}
