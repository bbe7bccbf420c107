package experiments

import (
	"math"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

type captureSink struct{ evs []obs.Event }

func (c *captureSink) WriteEvents(batch []obs.Event) error {
	c.evs = append(c.evs, batch...)
	return nil
}

// TestRingAndBusAgreePerLoopEpoch is the one-key lookup the per-epoch
// record exists for: a supervised loop with a flight recorder and a
// fleet loop attached, driven from nominal into a sensor-fault fallback
// and back to engaged, leaves one ring record and one bus event per
// epoch, and the two agree on the epoch's mode, targets, outputs and
// in-effect configuration. The bus numbers epochs from 1, the ring from
// 0.
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
	if h := sup.Health(); h.Fallbacks == 0 || h.Reengagements == 0 || sup.Mode() != 0 {
		t.Fatalf("run did not go nominal → fallback → engaged: %+v, mode %v", h, sup.Mode())
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
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	fallbacks := 0
	for i := range recs {
		r, e := &recs[i], &sink.evs[i]
		if e.Epoch != r.Epoch+1 {
			t.Fatalf("record %d: bus epoch %d, ring epoch %d", i, e.Epoch, r.Epoch)
		}
		if r.Mode != e.Mode || !same(r.IPSTarget, e.IPSTarget) || !same(r.PowerTarget, e.PowerTarget) ||
			!same(r.IPS, e.IPS) || !same(r.PowerW, e.PowerW) ||
			!same(r.TrueIPS, e.TrueIPS) || !same(r.TruePowerW, e.TruePowerW) ||
			r.CfgFreq != e.CfgFreq || r.CfgCache != e.CfgCache || r.CfgROB != e.CfgROB {
			t.Fatalf("epoch %d: ring and bus disagree\nring %+v\n bus %+v", r.Epoch, *r, *e)
		}
		if r.Mode == obs.ModeFallback {
			fallbacks++
		}
	}
	if fallbacks == 0 || int(rep.Rows[0].FallbackEpochs) != fallbacks {
		t.Fatalf("ring holds %d fallback epochs, /slo counts %d", fallbacks, rep.Rows[0].FallbackEpochs)
	}
}
