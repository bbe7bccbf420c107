package supervisor

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mimoctl/internal/adapt"
	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/testkit"
	"mimoctl/internal/workloads"
)

// lockstepEpochs caps a lockstep run: past the grace period and a
// fallback and re-engagement after it.
const lockstepEpochs = 2048

// lockstepDesigns are the paper-flow 2- and 3-input designs the
// lockstep runs clone, designed once per test binary.
var lockstepDesigns struct {
	once sync.Once
	ctrl [2]*core.MIMOController
	rep  [2]*core.DesignReport
	err  error
}

// lockstepLoop builds a Supervised and a refSupervised around clones of
// the same design, each with its own monitor and adapter when adaptive,
// its own flight recorder (so every epoch's event is filled) and its
// own registry.
func lockstepLoop(t testing.TB, three, adaptive bool) (*Supervised, *refSupervised, [2]*telemetry.Registry) {
	t.Helper()
	d := &lockstepDesigns
	d.once.Do(func() {
		var training, validation []sim.Workload
		for _, p := range workloads.TrainingSet() {
			training = append(training, p)
		}
		for _, name := range []string{"h264ref", "tonto"} {
			w, err := workloads.ByName(name)
			if err != nil {
				d.err = err
				return
			}
			validation = append(validation, w)
		}
		for i := range d.ctrl {
			spec := core.DesignSpec{Training: training, Validation: validation, EpochsPerApp: 1500, Seed: 5, ThreeInput: i == 1}
			if d.ctrl[i], d.rep[i], d.err = core.DesignMIMO(spec); d.err != nil {
				return
			}
		}
	})
	if d.err != nil {
		t.Fatal(d.err)
	}
	i := 0
	if three {
		i = 1
	}
	opts := func(ctrl *core.MIMOController) Options {
		if !adaptive {
			return Options{}
		}
		mon := health.NewMonitor()
		ad, err := adapt.New(adapt.Options{Model: d.rep[i].Model, Target: ctrl, Monitor: mon, Seed: 9001,
			IPSGuardband: d.rep[i].Guardbands[0], PowerGuardband: d.rep[i].Guardbands[1]})
		if err != nil {
			t.Fatal(err)
		}
		return Options{ModelHealth: mon, Adapter: ad}
	}
	a, b := d.ctrl[i].Clone(), d.ctrl[i].Clone()
	a.Reset()
	b.Reset()
	sup, ref := New(a, opts(a)), newRef(b, opts(b))
	regs := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	sup.BindTelemetry(regs[0])
	ref.monitor.BindTelemetry(regs[1])
	if ref.adapter != nil {
		ref.adapter.BindTelemetry(regs[1])
	}
	ref.tel = newSupMetrics(regs[1], nil)
	ref.tel.mode.Set(float64(ref.mode))
	sup.rec, ref.rec = flightrec.New(1), flightrec.New(1)
	return sup, ref, regs
}

var errLockstepApply = errors.New("injected actuation failure")

// lockstep steps a Supervised and the reference supervisor in lockstep
// through the schedule data decodes (testkit.SupSchedule), each feeding
// back its own configuration, and fails on the first epoch whose
// configuration, event (floats by bits), Health or Nominal differ. At
// the end the supervisor_* instruments must read the same. It returns
// the run's Health and the adapter's statistics (zero without one).
func lockstep(t *testing.T, data []byte, seed int64, three, adaptive bool) (Health, adapt.Stats) {
	t.Helper()
	sup, ref, regs := lockstepLoop(t, three, adaptive)
	sup.SetTargets(2, 6)
	ref.SetTargets(2, 6)
	cfgs := [2]sim.Config{sim.MidrangeConfig(), sim.MidrangeConfig()}
	epoch := 0
	testkit.SupSchedule(data, seed, lockstepEpochs, sup.Targets, func(e testkit.SupEpoch) {
		if t.Failed() {
			return
		}
		if e.Retarget {
			sup.SetTargets(e.IPS, e.Power)
			ref.SetTargets(e.IPS, e.Power)
		}
		if e.Reset {
			sup.Reset()
			ref.Reset()
		}
		var evs [2]obs.Event
		tel := e.Tel
		tel.Epoch, tel.Config = epoch, cfgs[0]
		got, _ := sup.StepEvent(tel, &evs[0])
		tel.Config = cfgs[1]
		want, _ := ref.StepEvent(tel, &evs[1])
		if got != want {
			t.Fatalf("epoch %d: configuration %+v, reference %+v", epoch, got, want)
		}
		if d := testkit.EventDiff(evs[0], evs[1]); d != nil {
			t.Fatalf("epoch %d: event differs from the reference: %s", epoch, strings.Join(d, "; "))
		}
		var err error
		if e.ApplyFails {
			err = errLockstepApply
		}
		sup.ObserveApply(got, err)
		ref.ObserveApply(want, err)
		if h, rh := sup.Health(), ref.Health(); h != rh {
			t.Fatalf("epoch %d: health %+v, reference %+v", epoch, h, rh)
		}
		if n, rn := sup.Nominal(), ref.Nominal(); n != rn {
			t.Fatalf("epoch %d: nominal %v, reference %v", epoch, n, rn)
		}
		cfgs = [2]sim.Config{got, want}
		epoch++
	})
	var dumps [2]strings.Builder
	for i, reg := range regs {
		if err := reg.WritePrometheus(&dumps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if dumps[0].String() != dumps[1].String() {
		t.Fatalf("instruments differ:\n%s\nreference:\n%s", dumps[0].String(), dumps[1].String())
	}
	var st adapt.Stats
	if sup.adapter != nil {
		st = sup.adapter.Stats()
	}
	return sup.Health(), st
}

// randomSchedule draws a schedule of records for testkit.SupSchedule
// with operands in the ranges each op means: plausible or non-finite
// readings, reachable targets, IPS swings either side of target.
func randomSchedule(rng *rand.Rand) []byte {
	var data []byte
	for len(data) < 17*24 {
		kind, hold := byte(rng.Intn(8)), byte(rng.Intn(32))
		var a, b float64
		switch kind {
		case 2:
			a, b = rng.Float64()*12, rng.Float64()*14
			if rng.Intn(4) == 0 {
				a = math.NaN()
			}
		case 3:
			a, b = 0.5+rng.Float64()*3, 2+rng.Float64()*12
			if rng.Intn(6) == 0 {
				b = math.Inf(1)
			}
		case 6:
			a, b = 0.2+rng.Float64(), 2.5+rng.Float64()*2
		}
		data = append(data, testkit.SupRecord(kind, hold, a, b)...)
	}
	return data
}

// TestModeMachineMatchesReference: the supervisor on its mode machine
// makes the reference supervisor's decisions — the same configuration,
// event, Health, Nominal and instruments on every epoch — on the
// supervised-loop fuzzers' seeds and on random schedules, for 2- and
// 3-input loops, with and without a model-health monitor and adapter.
// Together the runs reach every fallback cause, re-engagement, retries
// and holds, and adapter swaps and reverts.
func TestModeMachineMatchesReference(t *testing.T) {
	var total Health
	var adapted adapt.Stats
	run := func(name string, data []byte, seed int64, three, adaptive bool) {
		t.Run(name, func(t *testing.T) {
			h, st := lockstep(t, data, seed, three, adaptive)
			total.DeadSensorEpochs += h.DeadSensorEpochs
			total.DivergenceAlarms += h.DivergenceAlarms
			total.InnovationAlarms += h.InnovationAlarms
			total.ModelHealthAlarms += h.ModelHealthAlarms
			total.ApplyRetries += h.ApplyRetries
			total.Fallbacks += h.Fallbacks
			total.Reengagements += h.Reengagements
			adapted.Triggers += st.Triggers
			adapted.Swaps += st.Swaps
			adapted.Reverts += st.Reverts
		})
	}
	for _, s := range testkit.SupSeeds {
		for _, adaptive := range []bool{false, true} {
			name := s.Name
			if adaptive {
				name += "/adaptive"
			}
			run(name, s.Data, s.Seed, s.Seed%2 == 0, adaptive)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 24; i++ {
		run("random", randomSchedule(rng), rng.Int63(), i%2 == 0, i%3 == 0)
	}
	t.Logf("totals: %+v; adapter %+v", total, adapted)
	if total.DeadSensorEpochs == 0 || total.DivergenceAlarms == 0 || total.InnovationAlarms == 0 ||
		total.ModelHealthAlarms == 0 || total.ApplyRetries == 0 || total.Fallbacks == 0 || total.Reengagements == 0 ||
		adapted.Swaps == 0 || adapted.Reverts == 0 {
		t.Errorf("the runs miss a supervisor path: %+v; adapter %+v", total, adapted)
	}
}

// FuzzModeMachineVsReference is TestModeMachineMatchesReference on a
// fuzz-chosen schedule: seed's low bits pick the design and whether a
// monitor and adapter ride along.
func FuzzModeMachineVsReference(f *testing.F) {
	for _, s := range testkit.SupSeeds {
		f.Add(s.Data, s.Seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		lockstep(t, data, seed, seed%2 == 0, seed&2 != 0)
	})
}
