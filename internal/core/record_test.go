package core

import (
	"math"
	"sync"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/lqg"
	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/testkit"
	"mimoctl/internal/workloads"
)

// The differential that keeps the unsupervised record's earlier
// writers: FillEvent must write, bit for bit, the record a
// MIMOController wrote of its own steps (appendRecord) and the one
// cmd/mimotrace's harness wrote for every other controller (fillEvent).

// refRecord is the earlier writers' record of ctrl's epoch, which
// stepped on t and returned cfg. For a MIMOController it is
// appendRecord's, with innov the step's Kalman innovation as Step read
// it (nil when the step failed); for any other controller fillEvent's.
func refRecord(ctrl ArchController, cfg sim.Config, t sim.Telemetry, innov []float64) obs.Event {
	nan := math.NaN()
	c, ok := ctrl.(*MIMOController)
	if !ok {
		ti, tp := ctrl.Targets()
		return obs.Event{
			IPSTarget:   ti,
			PowerTarget: tp,
			IPS:         t.IPS,
			PowerW:      t.PowerW,
			TrueIPS:     t.TrueIPS,
			TruePowerW:  t.TruePowerW,
			InnovIPS:    nan,
			InnovPowerW: nan,
			InnovNorm:   nan,
			ExcessNorm:  nan,
			Guardband:   nan,
			UFreqGHz:    nan,
			UL2Ways:     nan,
			UROBEntries: nan,
			ReqFreq:     int16(cfg.FreqIdx),
			ReqCache:    int16(cfg.CacheIdx),
			ReqROB:      int16(cfg.ROBIdx),
			CfgFreq:     int16(t.Config.FreqIdx),
			CfgCache:    int16(t.Config.CacheIdx),
			CfgROB:      int16(t.Config.ROBIdx),
		}
	}
	ev := obs.Event{
		IPSTarget:   c.ipsTarget,
		PowerTarget: c.powerTarget,
		IPS:         t.IPS,
		PowerW:      t.PowerW,
		TrueIPS:     t.TrueIPS,
		TruePowerW:  t.TruePowerW,
		InnovIPS:    nan,
		InnovPowerW: nan,
		InnovNorm:   nan,
		Guardband:   nan,
		ReqFreq:     int16(c.cur.FreqIdx),
		ReqCache:    int16(c.cur.CacheIdx),
		ReqROB:      int16(c.cur.ROBIdx),
		CfgFreq:     int16(t.Config.FreqIdx),
		CfgCache:    int16(t.Config.CacheIdx),
		CfgROB:      int16(t.Config.ROBIdx),
	}
	if len(innov) >= 2 {
		ev.InnovIPS, ev.InnovPowerW = innov[0], innov[1]
	}
	c.FillInternals(&ev)
	return ev
}

// recordDesigns are the two paper designs (2- and 3-input), designed
// once per test binary; tests and fuzz executions step clones.
var recordDesigns struct {
	once  sync.Once
	ctrls [2]*MIMOController
	err   error
}

func recordDesign(tb testing.TB, threeInput bool) *MIMOController {
	tb.Helper()
	d := &recordDesigns
	d.once.Do(func() {
		var training []sim.Workload
		for _, p := range workloads.TrainingSet() {
			training = append(training, p)
		}
		for i, three := range []bool{false, true} {
			d.ctrls[i], _, d.err = DesignMIMO(DesignSpec{ThreeInput: three, Training: training, EpochsPerApp: 2000, Seed: 5})
			if d.err != nil {
				return
			}
		}
	})
	if d.err != nil {
		tb.Fatal(d.err)
	}
	c := d.ctrls[0]
	if threeInput {
		c = d.ctrls[1]
	}
	return c.Clone()
}

// failingLQG returns an LQG controller with one output: installed in a
// MIMOController, whose Step passes two, it fails every step.
func failingLQG(tb testing.TB, inputs int) *lqg.Controller {
	tb.Helper()
	b := mat.New(1, inputs)
	for j := 0; j < inputs; j++ {
		b.Set(0, j, 0.1)
	}
	plant, err := lti.NewStateSpace(testkit.FromRows([][]float64{{0.5}}), b, mat.Identity(1), nil, sim.EpochSeconds)
	if err != nil {
		tb.Fatal(err)
	}
	in := make([]float64, inputs)
	for j := range in {
		in[j] = 1
	}
	lq, err := lqg.Design(plant, lqg.Weights{OutputWeights: []float64{1}, InputWeights: in},
		lqg.Noise{W: mat.Scale(1e-3, mat.Identity(1)), V: mat.Scale(1e-3, mat.Identity(1))},
		lqg.Options{DeltaU: true, Integral: true})
	if err != nil {
		tb.Fatal(err)
	}
	return lq
}

// recordRig steps a MIMO controller, the Baseline and an Optimizer
// around a second MIMO controller (which the record does not read
// through) on the same telemetry, and checks every member's FillEvent
// record against refRecord.
type recordRig struct {
	mimo    *MIMOController
	healthy *lqg.Controller // mimo's own design
	failing *lqg.Controller // installed while the steps fail
	ctrls   []ArchController
	steps   int
}

func newRecordRig(tb testing.TB, threeInput bool) *recordRig {
	tb.Helper()
	mimo := recordDesign(tb, threeInput)
	static, err := NewStaticController(sim.BaselineConfig())
	if err != nil {
		tb.Fatal(err)
	}
	opt, err := NewOptimizer(recordDesign(tb, threeInput), OptimizerConfig{K: 2})
	if err != nil {
		tb.Fatal(err)
	}
	inputs := 2
	if threeInput {
		inputs = 3
	}
	return &recordRig{mimo: mimo, healthy: mimo.lq, failing: failingLQG(tb, inputs), ctrls: []ArchController{mimo, static, opt}}
}

// setFailing installs the failing or the healthy LQG controller.
func (r *recordRig) setFailing(fail bool) {
	r.mimo.lq = r.healthy
	if fail {
		r.mimo.lq = r.failing
	}
}

// step steps every member on t and compares the records.
func (r *recordRig) step(tb testing.TB, t sim.Telemetry) []sim.Config {
	tb.Helper()
	r.steps++
	cfgs := make([]sim.Config, len(r.ctrls))
	for i, ctrl := range r.ctrls {
		cfg := ctrl.Step(t)
		cfgs[i] = cfg
		var innov []float64
		if ctrl == r.mimo {
			failed := r.mimo.lq == r.failing
			if r.mimo.stepErr != failed {
				tb.Fatalf("step %d: step error %v, want %v", r.steps, r.mimo.stepErr, failed)
			}
			if !failed {
				innov = r.mimo.LastInnovation()
			}
		}
		want := refRecord(ctrl, cfg, t, innov)
		var got obs.Event
		FillEvent(&got, ctrl, cfg, &t)
		if d := testkit.EventDiff(got, want); d != nil {
			tb.Fatalf("step %d, %s: FillEvent differs from the earlier writer: %v", r.steps, ctrl.Name(), d)
		}
	}
	return cfgs
}

// TestFillEventMatchesReference runs both paper designs on a plant for
// 1 200 epochs with NaN and infinite readings, accepted and rejected
// target changes, a run of failed steps and a reset, and holds every
// record to the earlier writers'.
func TestFillEventMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("controller design is slow")
	}
	for _, three := range []bool{false, true} {
		r := newRecordRig(t, three)
		proc, err := sim.NewProcessor(mustWorkload(t, "namd"), sim.DefaultProcessorOptions(), 21)
		if err != nil {
			t.Fatal(err)
		}
		tel := proc.Step()
		for k := 0; k < 1200; k++ {
			switch {
			case k >= 100 && k < 110:
				tel.IPS = math.NaN()
			case k >= 120 && k < 126:
				tel.PowerW = math.Inf(1)
			case k == 130:
				tel.IPS, tel.TruePowerW = math.Inf(-1), math.NaN()
			case k == 200 || k == 700:
				for _, c := range r.ctrls {
					c.SetTargets(2.0+float64(k)/1000, 1.5)
				}
			case k == 250:
				for _, c := range r.ctrls {
					c.SetTargets(math.NaN(), -1)
				}
			case k == 300:
				r.setFailing(true)
			case k == 320:
				r.setFailing(false)
			case k == 400:
				for _, c := range r.ctrls {
					c.Reset()
				}
			}
			cfgs := r.step(t, tel)
			if err := proc.Apply(cfgs[0]); err != nil {
				t.Fatal(err)
			}
			tel = proc.Step()
		}
	}
}

// fuzzValue maps a byte to a reading: 255, 254 and 253 are NaN, +Inf
// and -Inf, anything else b·scale.
func fuzzValue(b byte, scale float64) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	}
	return float64(b) * scale
}

// FuzzFillEventVsReference drives the record differential from bytes:
// the first picks the design, then each group of four is one operation
// — a step on arbitrary telemetry (NaN and infinities included, any
// legal configuration in effect), a target change, failing or healthy
// steps from then on, or a reset.
func FuzzFillEventVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 100, 80, 3, 1, 255, 80, 7, 4, 120, 90, 0, 5, 0, 0, 0, 2, 90, 254, 1, 6, 0, 0, 0, 3, 120, 70, 2})
	f.Add([]byte{1, 0, 120, 80, 40, 4, 253, 12, 0, 0, 100, 255, 9, 7, 0, 0, 0, 0, 130, 85, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		r := newRecordRig(t, data[0]&1 == 1)
		data = data[1:]
		for n := 0; len(data) >= 4 && n < 256; n++ {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			switch op % 8 {
			case 4:
				for _, ctrl := range r.ctrls {
					ctrl.SetTargets(fuzzValue(a, 1.0/50), fuzzValue(b, 1.0/40))
				}
			case 5:
				r.setFailing(true)
			case 6:
				r.setFailing(false)
			case 7:
				for _, ctrl := range r.ctrls {
					ctrl.Reset()
				}
			default:
				cfg := sim.Config{
					FreqIdx:  int(c) % len(sim.FreqSettingsGHz),
					CacheIdx: int(c/16) % len(sim.CacheSettings),
					ROBIdx:   int(op/8) % len(sim.ROBSettings),
				}
				r.step(t, sim.Telemetry{
					IPS: fuzzValue(a, 1.0/50), PowerW: fuzzValue(b, 1.0/40),
					TrueIPS: fuzzValue(b, 1.0/50), TruePowerW: fuzzValue(a, 1.0/40),
					Config: cfg,
				})
			}
		}
	})
}

// TestHarnessRecordAllocFree pins the harness's recording of an epoch,
// FillEvent and the ring's Append, at zero allocations for the MIMO
// controller (which adds its internals) and any other.
func TestHarnessRecordAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("controller design is slow")
	}
	r := newRecordRig(t, false)
	rec := flightrec.New(64)
	tel := sim.Telemetry{IPS: 2.3, PowerW: 1.9, Config: sim.MidrangeConfig()}
	for _, ctrl := range r.ctrls {
		cfg := ctrl.Step(tel)
		var ev obs.Event
		if allocs := testing.AllocsPerRun(200, func() {
			FillEvent(&ev, ctrl, cfg, &tel)
			rec.Append(&ev)
		}); allocs != 0 {
			t.Errorf("%s: recording an epoch allocates %v times", ctrl.Name(), allocs)
		}
	}
}
