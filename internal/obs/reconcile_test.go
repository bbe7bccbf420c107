package obs_test

import (
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"mimoctl/internal/batch"
	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

// fleetRig is n supervised MIMO loops wired as the fleet workloads wire
// them: one obs.Fleet with a registry and a bus, each supervisor
// attached to its loop and bound to the loop's scope, all stepped by
// the batch engine. Loop i closes on its own plant behind a fault
// injector.
type fleetRig struct {
	reg   *telemetry.Registry
	bus   *obs.Bus
	fleet *obs.Fleet
	eng   *batch.SupEngine
	injs  []*sim.FaultInjector
	tels  []sim.Telemetry
	outs  []sim.Config
}

// newFleetRig builds the rig, its bus draining into sink; fault(i),
// when not nil, strikes loop i.
func newFleetRig(t testing.TB, n int, sink obs.Sink, fault func(i int) *sim.SensorFault) *fleetRig {
	t.Helper()
	mimo, _, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName(experiments.FaultSweepWorkload)
	if err != nil {
		t.Fatal(err)
	}
	r := &fleetRig{reg: telemetry.NewRegistry(), bus: obs.NewBus(1<<14, sink), eng: batch.NewSupervised(),
		tels: make([]sim.Telemetry, n), outs: make([]sim.Config, n)}
	r.fleet = obs.NewFleet(obs.Options{Registry: r.reg, Bus: r.bus})
	for i := 0; i < n; i++ {
		proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), experiments.DefaultSeed+801+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		inj := sim.NewFaultInjector(proc, experiments.DefaultSeed+901+int64(i))
		if f := fault(i); f != nil {
			inj.AddSensorFault(*f)
		}
		sup := supervisor.New(mimo.Clone(), supervisor.Options{})
		sup.Reset()
		sup.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
		l := r.fleet.Register(fmt.Sprintf("loop-%02d", i))
		sup.SetLoopObs(l)
		sup.BindTelemetry(l.Scope())
		if _, err := r.eng.Add(sup); err != nil {
			t.Fatal(err)
		}
		r.injs = append(r.injs, inj)
		r.tels[i] = inj.Step()
	}
	return r
}

// step runs one fleet epoch. It first waits while the bus is more than
// half full, as the fleet benchmark does, so no event is dropped.
func (r *fleetRig) step(t testing.TB) {
	t.Helper()
	for r.bus.Occupancy() > uint64(r.bus.Cap()/2) {
		runtime.Gosched()
	}
	if err := r.eng.StepAll(r.tels, r.outs); err != nil {
		t.Fatal(err)
	}
	for i, inj := range r.injs {
		cfg := r.outs[i]
		if cfg.Validate() != nil {
			cfg = r.tels[i].Config
		}
		r.eng.ObserveApply(i, cfg, inj.Apply(cfg))
		r.tels[i] = inj.Step()
	}
}

// keepSink keeps every event the bus delivers.
type keepSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (s *keepSink) WriteEvents(batch []obs.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evs = append(s.evs, batch...)
	return nil
}

// since waits until the sink holds every event bus has accepted and
// returns those after the first from.
func (s *keepSink) since(bus *obs.Bus, from int) []obs.Event {
	for {
		published, _, _ := bus.Stats()
		s.mu.Lock()
		if uint64(len(s.evs)) == published {
			evs := s.evs[from:]
			s.mu.Unlock()
			return evs
		}
		s.mu.Unlock()
		runtime.Gosched()
	}
}

// TestScrapeReconcilesWithEvents: a 64-loop fleet runs 5 000 epochs,
// past two wraps of the default specs' 2 048-epoch rings, while one
// loop in eight loses every sensor (half of them recovering mid-run,
// half pinned to the end). At checkpoints on either side of each wrap,
// once the bus has delivered every event published so far, one scrape
// must equal, loop by loop, a fold over the events that loop published:
// the epoch, fallback and power-violation counts, the tracking-error
// RMS, each SLO's bad count, burn rate and alert by Float64bits against
// the reference evaluator, and a supervisor epoch count equal to the
// loop's. Every per-epoch family is read at scrape time, so the counts
// reconcile by construction; this holds them to it. An alert raised
// before the first wrap must have cleared by the end, and every pinned
// loop must still alert.
func TestScrapeReconcilesWithEvents(t *testing.T) {
	const nLoops, epochs, ring = 64, 5000, 2048
	struck := func(i int) bool { return i%8 == 3 }
	pinned := func(i int) bool { return struck(i) && (i/8)%2 == 0 }
	sink := &keepSink{}
	r := newFleetRig(t, nLoops, sink, func(i int) *sim.SensorFault {
		if !struck(i) {
			return nil
		}
		f := sim.SensorFault{Kind: sim.FaultNaN, Channel: sim.ChAll, From: 200 + 60*i, Until: epochs + 1}
		if !pinned(i) {
			f.Until = f.From + 400
		}
		return &f
	})

	specs := obs.DefaultSpecs()
	folds := make([]*obs.EventFold, nLoops)
	for i := range folds {
		folds[i] = obs.NewEventFold(specs)
	}
	folded := 0
	early := map[string]bool{} // loop/slo alerting at a checkpoint before the first wrap
	var last map[string]bool
	k := 0
	for _, at := range []int{1000, ring - 1, ring, ring + 1, 3000, 2*ring - 1, 2 * ring, 2*ring + 1, epochs} {
		for ; k < at; k++ {
			r.step(t)
		}
		evs := sink.since(r.bus, folded)
		folded += len(evs)
		for j := range evs {
			ev := &evs[j]
			f := folds[ev.LoopID]
			if ev.Epoch != f.Epochs+1 {
				t.Fatalf("loop %d: event for epoch %d follows epoch %d", ev.LoopID, ev.Epoch, f.Epochs)
			}
			f.Add(ev)
		}
		last = reconcile(t, r, folds, specs, uint64(at))
		if at < ring {
			for key := range last {
				early[key] = true
			}
		}
	}
	if err := r.bus.Close(); err != nil {
		t.Fatal(err)
	}
	if published, dropped, _ := r.bus.Stats(); dropped != 0 || uint64(folded) != published {
		t.Fatalf("bus dropped %d events; the folds took %d of %d published", dropped, folded, published)
	}

	for i, f := range folds {
		name := r.fleet.LoopName(uint32(i))
		if struck(i) && f.FallbackEpochs == 0 {
			t.Fatalf("%s lost every sensor and never fell back", name)
		}
		if pinned(i) && !last[name+"/availability"] {
			t.Errorf("%s is pinned in fallback but no longer alerts on availability", name)
		}
	}
	cleared := 0
	for key := range early {
		if !last[key] {
			cleared++
		}
	}
	if cleared == 0 {
		t.Fatalf("none of the %d alerts raised before the first wrap cleared by the end", len(early))
	}
}

// reconcile scrapes r's registry and requires every loop's families to
// equal its fold after epochs epochs. It returns the loop/slo pairs
// alerting.
func reconcile(t *testing.T, r *fleetRig, folds []*obs.EventFold, specs []obs.Spec, epochs uint64) map[string]bool {
	t.Helper()
	sc := obs.Scrape(t, r.reg)
	alerting := map[string]bool{}
	for i, f := range folds {
		name := r.fleet.LoopName(uint32(i))
		if f.Epochs != epochs {
			t.Fatalf("%s published %d events by epoch %d", name, f.Epochs, epochs)
		}
		loop := `{loop="` + name + `"}`
		for _, c := range []struct {
			family string
			want   uint64
		}{
			{"loop_epochs_total", f.Epochs},
			{"loop_fallback_epochs_total", f.FallbackEpochs},
			{"loop_power_violation_epochs_total", f.ViolationEpochs},
			{"supervisor_epochs_total", f.Epochs},
		} {
			if got := sc.Uint(t, c.family+loop); got != c.want {
				t.Errorf("epoch %d: %s%s = %d, the events fold to %d", epochs, c.family, loop, got, c.want)
			}
		}
		if got, want := sc.Float(t, "loop_tracking_error_rms"+loop), f.TrackingRMS(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("epoch %d: loop_tracking_error_rms%s = %v, the events fold to %v", epochs, loop, got, want)
		}
		for j, spec := range specs {
			key := func(family string) string { return family + `{loop="` + name + `",slo="` + spec.Name + `"}` }
			bad, burn, alert := f.SLO(j)
			if got := sc.Uint(t, key("slo_bad_epochs_total")); got != bad {
				t.Errorf("epoch %d: %s = %d, the events fold to %d", epochs, key("slo_bad_epochs_total"), got, bad)
			}
			if got := sc.Float(t, key("slo_burn_rate")); math.Float64bits(got) != math.Float64bits(burn) {
				t.Errorf("epoch %d: %s = %v, the events fold to %v", epochs, key("slo_burn_rate"), got, burn)
			}
			if got := sc.Float(t, key("slo_alerting")); math.Float64bits(got) != math.Float64bits(alert) {
				t.Errorf("epoch %d: %s = %v, the events fold to %v", epochs, key("slo_alerting"), got, alert)
			}
			if alert == 1 {
				alerting[name+"/"+spec.Name] = true
			}
		}
	}
	return alerting
}

// TestScrapeWhileStepping scrapes /metrics over and over while a
// 16-loop fleet steps; run it under -race. Every loop's
// epoch count must never fall from one scrape to the next, and once the
// fleet stops, each supervisor's epoch count must equal its loop's.
func TestScrapeWhileStepping(t *testing.T) {
	const nLoops, epochs = 16, 300
	r := newFleetRig(t, nLoops, &keepSink{}, func(i int) *sim.SensorFault {
		if i%8 != 3 {
			return nil
		}
		return &sim.SensorFault{Kind: sim.FaultNaN, Channel: sim.ChAll, From: 50, Until: 150}
	})
	defer r.bus.Close()
	mux := telemetry.NewMux(telemetry.ServerOptions{Registry: r.reg})
	var scrapes atomic.Int64
	var quit atomic.Bool // the scraper stopped on a failure
	done := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stop := func() { once.Do(func() { close(done); wg.Wait() }) }
	defer stop() // also on a failed step
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer quit.Store(true)
		last := make(map[string]uint64)
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				t.Errorf("GET /metrics: status %d", rec.Code)
				return
			}
			sc := obs.ParseExposition(rec.Body.String())
			for i := 0; i < nLoops; i++ {
				key := fmt.Sprintf(`loop_epochs_total{loop="loop-%02d"}`, i)
				n, err := strconv.ParseUint(sc[key], 10, 64)
				if err != nil {
					t.Errorf("%s: %q is not a count", key, sc[key])
					return
				}
				if n < last[key] {
					t.Errorf("%s fell from %d to %d between scrapes", key, last[key], n)
					return
				}
				last[key] = n
			}
			scrapes.Add(1)
		}
	}()
	// Step on until a few scrapes have raced the fleet.
	for k := 0; (k < epochs || scrapes.Load() < 3) && !quit.Load(); k++ {
		r.step(t)
	}
	stepped := r.fleet.Register("loop-00").Epochs() // Register returns the registered loop
	stop()

	sc := obs.Scrape(t, r.reg)
	for i := 0; i < nLoops; i++ {
		loop := fmt.Sprintf(`{loop="loop-%02d"}`, i)
		if got, sup := sc.Uint(t, "loop_epochs_total"+loop), sc.Uint(t, "supervisor_epochs_total"+loop); got != stepped || sup != got {
			t.Fatalf("loop-%02d: loop_epochs_total %d, supervisor_epochs_total %d, want both %d", i, got, sup, stepped)
		}
	}
}
