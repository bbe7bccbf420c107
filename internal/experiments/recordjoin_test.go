package experiments

import (
	"math"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/testkit"
	"mimoctl/internal/workloads"
)

type captureSink struct{ evs []obs.Event }

func (c *captureSink) WriteEvents(batch []obs.Event) error {
	c.evs = append(c.evs, batch...)
	return nil
}

// TestRingAndBusAgreePerLoopEpoch is the one-key lookup the per-epoch
// record exists for: a supervised loop with a flight recorder and a
// fleet loop attached, driven from nominal into a sensor-fault fallback,
// back to engaged and through a target change, leaves one ring record
// and one bus event per epoch, and the two are the same record: equal
// epochs, and every field bit-identical but the two only the fleet loop
// stamps (LoopID, FlagTargetChange), which the ring never carries.
func TestRingAndBusAgreePerLoopEpoch(t *testing.T) {
	const epochs = 2000
	sup, err := NewMonitoredSupervised(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	ring := flightrec.New(epochs)
	sup.SetFlightRecorder(ring)
	sink := &captureSink{}
	bus := obs.NewBus(2*epochs, sink)
	fleet := obs.NewFleet(obs.Options{Bus: bus})
	sup.SetLoopObs(fleet.Register("joined"))

	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), DefaultSeed+701)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(proc, DefaultSeed+702)
	inj.AddSensorFault(sim.SensorFault{Kind: sim.FaultNaN, Channel: sim.ChAll, From: epochs / 4, Until: epochs * 3 / 8})
	sup.Reset()
	sup.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	tel := inj.Step()
	for k := 0; k < epochs; k++ {
		if k == epochs*3/4 {
			sup.SetTargets(0.9*core.DefaultIPSTarget, 0.9*core.DefaultPowerTarget)
		}
		cfg := sup.Step(tel)
		if cfg.Validate() != nil {
			cfg = tel.Config
		}
		sup.ObserveApply(cfg, inj.Apply(cfg))
		tel = inj.Step()
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	if h := sup.Health(); h.Fallbacks == 0 || h.Reengagements != h.Fallbacks {
		t.Fatalf("run did not go nominal → fallback → engaged: %+v", h)
	}

	recs := ring.Snapshot()
	rep := fleet.Report()
	if _, dropped, _ := bus.Stats(); dropped != 0 {
		t.Fatalf("bus dropped %d events", dropped)
	}
	if ring.Meta().Epochs != epochs || len(recs) != epochs || len(sink.evs) != epochs || rep.Rows[0].Epochs != epochs {
		t.Fatalf("ring seq %d (%d held), bus events %d, /slo epochs %d; want %d each",
			ring.Meta().Epochs, len(recs), len(sink.evs), rep.Rows[0].Epochs, epochs)
	}
	fallbacks, internals, targetChanges := 0, 0, 0
	for i := range recs {
		r, e := recs[i], sink.evs[i]
		if r.Epoch != uint64(i+1) || e.Epoch != r.Epoch {
			t.Fatalf("record %d: ring epoch %d, bus epoch %d, want %d", i, r.Epoch, e.Epoch, i+1)
		}
		if r.LoopID != 0 || r.Flags&obs.FlagTargetChange != 0 {
			t.Fatalf("epoch %d: the ring carries the fleet loop's stamps: %+v", r.Epoch, r)
		}
		if e.Flags&obs.FlagTargetChange != 0 {
			targetChanges++
		}
		// Only the fleet loop stamps these two, after the ring's copy.
		e.LoopID, e.Flags = 0, e.Flags&^obs.FlagTargetChange
		if d := testkit.EventDiff(r, e); len(d) != 0 {
			t.Fatalf("epoch %d: ring and bus disagree on %v\nring %+v\n bus %+v", r.Epoch, d, r, e)
		}
		if r.Mode == obs.ModeFallback {
			fallbacks++
		} else if !math.IsNaN(r.UFreqGHz) && r.ReqROB == obs.IdxNA {
			internals++ // the MIMO's continuous request and undriven ROB knob
		}
	}
	if fallbacks == 0 || int(rep.Rows[0].FallbackEpochs) != fallbacks {
		t.Fatalf("ring holds %d fallback epochs, /slo counts %d", fallbacks, rep.Rows[0].FallbackEpochs)
	}
	if internals == 0 || targetChanges != 1 {
		t.Fatalf("%d engaged records carry the MIMO's internals, %d bus events a target change; want > 0 and 1",
			internals, targetChanges)
	}
}
