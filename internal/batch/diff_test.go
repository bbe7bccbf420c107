package batch

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/decoupled"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

// The differentials step every fleet loop through the engine and an
// identically built standalone twin through Supervised.Step on the same
// telemetry, and require the same configurations every epoch and the
// same Health, mode, events and instruments.

// ---- shared designs (designing is the expensive part) ----

var designCache = struct {
	sync.Mutex
	ctrl map[string]core.ArchController
}{ctrl: map[string]core.ArchController{}}

// designed returns a memoized inner controller: "mimo2" and "mimo3"
// are the paper-flow 2- and 3-input designs, "mimo2-nodu" the 2-input
// ablation without the ΔU penalty, and "decoupled" the two SISO loops.
// Tests clone it; the cached instance is never stepped.
func designed(t testing.TB, kind string) core.ArchController {
	t.Helper()
	designCache.Lock()
	defer designCache.Unlock()
	if c, ok := designCache.ctrl[kind]; ok {
		return c
	}
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}
	var validation []sim.Workload
	for _, name := range []string{"h264ref", "tonto"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		validation = append(validation, w)
	}
	spec := core.DesignSpec{Training: training, Validation: validation, EpochsPerApp: 1500, Seed: 5}
	var c core.ArchController
	var err error
	switch kind {
	case "mimo2":
		c, _, err = core.DesignMIMO(spec)
	case "mimo3":
		spec.ThreeInput = true
		c, _, err = core.DesignMIMO(spec)
	case "mimo2-nodu":
		spec.DisableDeltaU = true
		c, _, err = core.DesignMIMO(spec)
	case "decoupled":
		c, err = decoupled.Design(decoupled.DesignSpec{Training: training, EpochsPerApp: 1500, Seed: 5})
	default:
		t.Fatalf("unknown design %q", kind)
	}
	if err != nil {
		t.Fatalf("design %s: %v", kind, err)
	}
	designCache.ctrl[kind] = c
	return c
}

// designedController returns a fresh clone of the paper-flow 2- or
// 3-input MIMO design, reset.
func designedController(t testing.TB, threeInput bool) *core.MIMOController {
	kind := "mimo2"
	if threeInput {
		kind = "mimo3"
	}
	c := designed(t, kind).(*core.MIMOController).Clone()
	c.Reset()
	return c
}

// freshInner returns a reset clone of a memoized design.
func freshInner(t testing.TB, kind string) core.ArchController {
	var c core.ArchController
	switch d := designed(t, kind).(type) {
	case *core.MIMOController:
		c = d.Clone()
	case *decoupled.Controller:
		c = d.Clone()
	}
	c.Reset()
	return c
}

// ---- one side of a differential ----

// side is a set of loops wired to one fleet plane: a registry whose
// per-loop scopes the supervisors bind, and a bus draining into a
// capture sink.
type side struct {
	reg   *telemetry.Registry
	bus   *obs.Bus
	sink  *captureSink
	fleet *obs.Fleet
	loops []*supervisor.Supervised
	cfgs  []sim.Config // each loop's last configuration, fed back as telemetry
}

func newSide() *side {
	s := &side{reg: telemetry.NewRegistry(), sink: &captureSink{}}
	s.bus = obs.NewBus(1<<14, s.sink)
	s.fleet = obs.NewFleet(obs.Options{Registry: s.reg, Bus: s.bus})
	return s
}

// add wires a supervisor into the side as loop "loop-<i>".
func (s *side) add(sup *supervisor.Supervised) {
	l := s.fleet.Register(fmt.Sprintf("loop-%d", len(s.loops)))
	sup.SetLoopObs(l)
	sup.BindTelemetry(l.Scope())
	s.loops = append(s.loops, sup)
	s.cfgs = append(s.cfgs, sim.MidrangeConfig())
}

// events closes the bus and returns every event it carried.
func (s *side) events(t *testing.T) []obs.Event {
	t.Helper()
	if err := s.bus.Close(); err != nil {
		t.Fatal(err)
	}
	published, dropped, _ := s.bus.Stats()
	if dropped != 0 || uint64(len(s.sink.evs)) != published {
		t.Fatalf("bus dropped %d events; sink saw %d of %d published", dropped, len(s.sink.evs), published)
	}
	return s.sink.evs
}

// exposition returns the registry's Prometheus lines whose series name
// starts with prefix.
func (s *side) exposition(t *testing.T, prefix string) []string {
	t.Helper()
	var sb strings.Builder
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, prefix) || strings.HasPrefix(line, "# HELP "+prefix) || strings.HasPrefix(line, "# TYPE "+prefix) {
			out = append(out, line)
		}
	}
	return out
}

// captureSink collects every drained event for post-run comparison.
type captureSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (s *captureSink) WriteEvents(batch []obs.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evs = append(s.evs, batch...)
	return nil
}

// pairing is a fleet side stepped by an engine and a standalone side
// whose loop i is built exactly as the fleet's loop i.
type pairing struct {
	e            *SupEngine
	fleet, alone *side
	tels         []sim.Telemetry
	out          []sim.Config
}

// newPairing builds n loop pairs: mk(i) returns two identically built
// supervisors (neither wired), the first joins the engine.
func newPairing(t testing.TB, n int, mk func(i int) (*supervisor.Supervised, *supervisor.Supervised)) *pairing {
	t.Helper()
	p := &pairing{e: NewSupervised(), fleet: newSide(), alone: newSide(),
		tels: make([]sim.Telemetry, n), out: make([]sim.Config, n)}
	for i := 0; i < n; i++ {
		f, a := mk(i)
		p.fleet.add(f)
		p.alone.add(a)
		id, err := p.e.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Add returned id %d, want %d", id, i)
		}
	}
	return p
}

// step runs one epoch: loop i of each side sees tel(i) with its own
// last configuration; the engine steps the fleet side, the twins step
// standalone, and every configuration must match. Apply outcomes from
// applyErr (nil for none) go to both sides.
func (p *pairing) step(t testing.TB, epoch int, tel func(i int) sim.Telemetry, applyErr func(i int) error) {
	t.Helper()
	// Hold the epoch while a bus is more than half full, as the fleet
	// benchmark does, so no event is dropped however slow the pump runs.
	for _, b := range [2]*obs.Bus{p.fleet.bus, p.alone.bus} {
		for b.Occupancy() > uint64(b.Cap()/2) {
			runtime.Gosched()
		}
	}
	for i := range p.fleet.loops {
		p.tels[i] = tel(i)
		p.tels[i].Epoch = epoch
		p.tels[i].Config = p.fleet.cfgs[i]
	}
	if err := p.e.StepAll(p.tels, p.out); err != nil {
		t.Fatal(err)
	}
	for i, a := range p.alone.loops {
		ta := p.tels[i]
		ta.Config = p.alone.cfgs[i]
		want := a.Step(ta)
		if p.out[i] != want {
			t.Fatalf("epoch %d loop %d: fleet %+v, standalone %+v (parked=%v)", epoch, i, p.out[i], want, p.e.Parked(i))
		}
		p.fleet.cfgs[i], p.alone.cfgs[i] = p.out[i], want
		var err error
		if applyErr != nil {
			err = applyErr(i)
		}
		p.e.ObserveApply(i, p.out[i], err)
		a.ObserveApply(want, err)
	}
}

// supMode is a supervisor's mode as its Health fixes it: it starts
// engaged, and each fallback counts in Fallbacks and each re-engagement
// in Reengagements.
func supMode(s *supervisor.Supervised) supervisor.Mode {
	if h := s.Health(); h.Fallbacks > h.Reengagements {
		return supervisor.ModeFallback
	}
	return supervisor.ModeEngaged
}

// requireSame compares every loop's Health and mode, then (closing the
// buses) the two event streams field by field and the supervisor_*
// exposition line by line. It returns the fleet side's events.
func (p *pairing) requireSame(t *testing.T) []obs.Event {
	t.Helper()
	for i, a := range p.alone.loops {
		if got, want := p.e.Health(i), a.Health(); got != want {
			t.Fatalf("loop %d: health %+v, standalone %+v", i, got, want)
		}
		if got, want := supMode(p.fleet.loops[i]), supMode(a); got != want {
			t.Fatalf("loop %d: mode %v, standalone %v", i, got, want)
		}
	}
	evs := p.fleet.events(t)
	requireSameEvents(t, evs, p.alone.events(t))
	got, want := p.fleet.exposition(t, "supervisor_"), p.alone.exposition(t, "supervisor_")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("supervisor_* exposition differs:\nfleet:\n%s\nstandalone:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	return evs
}

// eventFloats lists all 14 float fields of an event.
func eventFloats(ev *obs.Event) []float64 {
	return []float64{
		ev.IPSTarget, ev.PowerTarget, ev.IPS, ev.PowerW, ev.TrueIPS, ev.TruePowerW,
		ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm, ev.ExcessNorm, ev.Guardband,
		ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries,
	}
}

// requireSameEvents compares two event streams field by field, floats
// by bit pattern.
func requireSameEvents(t *testing.T, got, want []obs.Event) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("no events captured")
	}
	if len(got) != len(want) {
		t.Fatalf("event counts differ: fleet %d, standalone %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		af, bf := eventFloats(&a), eventFloats(&b)
		for k := range af {
			if math.Float64bits(af[k]) != math.Float64bits(bf[k]) {
				t.Fatalf("event %d: float field %d %v, standalone %v", i, k, af[k], bf[k])
			}
		}
		// With every float matched bit for bit, the rest of the record
		// must match exactly: no field is excluded.
		for _, ev := range []*obs.Event{&a, &b} {
			ev.IPSTarget, ev.PowerTarget, ev.IPS, ev.PowerW, ev.TrueIPS, ev.TruePowerW = 0, 0, 0, 0, 0, 0
			ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm, ev.ExcessNorm, ev.Guardband = 0, 0, 0, 0, 0
			ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries = 0, 0, 0
		}
		if a != b {
			t.Fatalf("event %d: %+v, standalone %+v", i, a, b)
		}
	}
}

// randTelemetry draws one epoch of synthetic telemetry: mostly plausible
// operating points, with a tail of extreme magnitudes and non-finite
// sensor values.
func randTelemetry(rng *rand.Rand) sim.Telemetry {
	var tel sim.Telemetry
	switch rng.Intn(50) {
	case 0:
		tel.IPS = math.NaN()
		tel.PowerW = rng.Float64() * 20
	case 1:
		tel.IPS = rng.Float64() * 4
		tel.PowerW = math.Inf(1)
	case 2:
		tel.IPS = math.Inf(-1)
		tel.PowerW = math.NaN()
	case 3:
		tel.IPS = rng.NormFloat64() * 1e9
		tel.PowerW = rng.NormFloat64() * 1e9
	default:
		tel.IPS = 0.3 + rng.Float64()*4
		tel.PowerW = 1 + rng.Float64()*10
	}
	tel.TrueIPS, tel.TruePowerW = tel.IPS, tel.PowerW
	tel.L1MPKI, tel.L2MPKI = rng.Float64()*20, rng.Float64()*5
	return tel
}

// TestBatchFleetBitIdentical runs a mixed fleet — the 2-input design,
// the 3-input design, the no-ΔU ablation and the Decoupled SISO pair,
// four kernels of the lqg shape table, half of them flight-recorded —
// through thousands of randomized epochs with non-finite telemetry,
// target changes (some rejected) and resets. The engine's loops must match their standalone
// twins in configurations, Health, events, instruments and flight
// records.
func TestBatchFleetBitIdentical(t *testing.T) {
	kinds := []string{"mimo2", "mimo3", "mimo2-nodu", "decoupled"}
	const n = 12
	var recs [][2]*flightrec.Recorder
	p := newPairing(t, n, func(i int) (*supervisor.Supervised, *supervisor.Supervised) {
		kind := kinds[i%len(kinds)]
		f, a := supervisor.New(freshInner(t, kind), supervisor.Options{}), supervisor.New(freshInner(t, kind), supervisor.Options{})
		ips, pow := 1+0.2*float64(i), 2+0.5*float64(i)
		f.SetTargets(ips, pow)
		a.SetTargets(ips, pow)
		if i%2 == 1 {
			rf, ra := flightrec.New(256), flightrec.New(256)
			f.SetFlightRecorder(rf)
			a.SetFlightRecorder(ra)
			recs = append(recs, [2]*flightrec.Recorder{rf, ra})
		}
		return f, a
	})
	rng := rand.New(rand.NewSource(42))
	for ep := 0; ep < 3000; ep++ {
		for i := range p.fleet.loops {
			switch rng.Intn(400) {
			case 0:
				ips, pow := rng.Float64()*4, rng.Float64()*12
				if rng.Intn(3) == 0 {
					ips = []float64{math.NaN(), math.Inf(1), -1}[rng.Intn(3)]
				}
				p.fleet.loops[i].SetTargets(ips, pow)
				p.alone.loops[i].SetTargets(ips, pow)
			case 1:
				p.fleet.loops[i].Reset()
				p.alone.loops[i].Reset()
			}
		}
		p.step(t, ep, func(int) sim.Telemetry { return randTelemetry(rng) }, nil)
	}
	p.requireSame(t)
	for i, r := range recs {
		got, want := r[0].Snapshot(), r[1].Snapshot()
		requireSameEvents(t, got, want)
		if len(got) != 256 {
			t.Fatalf("recorder %d holds %d records, want a full ring", i, len(got))
		}
	}
}

// TestBatchClosedLoopBitIdentical closes a fleet loop and its twin on
// two identically seeded processor simulations — the real closed loop,
// where one wrong ULP would compound — and requires identical
// configurations every epoch and identical Health and events.
func TestBatchClosedLoopBitIdentical(t *testing.T) {
	for _, three := range []bool{true, false} {
		name := "two-input"
		if three {
			name = "three-input"
		}
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName("namd")
			if err != nil {
				t.Fatal(err)
			}
			var procs []*sim.Processor
			for k := 0; k < 2; k++ {
				proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 77)
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, proc)
			}
			p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
				return supervisor.New(designedController(t, three), supervisor.Options{}),
					supervisor.New(designedController(t, three), supervisor.Options{})
			})
			tels := [2]sim.Telemetry{procs[0].Step(), procs[1].Step()}
			for ep := 0; ep < 2500; ep++ {
				if err := p.e.StepAll(tels[:1], p.out); err != nil {
					t.Fatal(err)
				}
				want := p.alone.loops[0].Step(tels[1])
				if p.out[0] != want {
					t.Fatalf("epoch %d: fleet %+v, standalone %+v", ep, p.out[0], want)
				}
				procs[0].Apply(p.out[0])
				procs[1].Apply(want)
				p.e.ObserveApply(0, p.out[0], nil)
				p.alone.loops[0].ObserveApply(want, nil)
				tels = [2]sim.Telemetry{procs[0].Step(), procs[1].Step()}
				if tels[0] != tels[1] {
					t.Fatalf("epoch %d: plants diverged: %+v vs %+v", ep, tels[0], tels[1])
				}
			}
			p.requireSame(t)
		})
	}
}
