package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mimoctl/internal/batch"
	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/tsdb"
	"mimoctl/internal/workloads"
)

// fleetWorkload describes one supervised-fleet workload.
type fleetWorkload struct {
	// apps the batched loops are assigned to, in equal shares.
	apps []*workloads.Profile
	// strike hits every scale.strikeEvery-th batched loop with one
	// sensor or actuator fault class.
	strike bool
	// adaptive adds scale.adaptiveLoops scalar adaptive loops on the
	// plant-drift fault class.
	adaptive bool
	// poll runs the operator's mimostat poll every scale.pollEvery
	// epochs.
	poll bool
}

const (
	// sampleEvery is the traced run's sampling period for per-call
	// timings, in epochs.
	sampleEvery = 16
	// windows is how many equal windows a fleet run is cut into.
	windows = 30
	// drillDowns is how many per-loop history queries one poll makes.
	drillDowns = 4
	// replays is how many loops are replayed scalar after the run.
	replays = 8
)

// runFleetSteady is the healthy fleet: batched loops on the training and
// validation applications, no faults, no history reads.
func runFleetSteady(cfg runConfig) (*report, error) {
	apps := append(workloads.TrainingSet(), workloads.ValidationSet()...)
	return runFleet(cfg, fleetWorkload{apps: apps})
}

// runFleetFaulted is the same fleet on every application, with sensor
// and actuator faults, adaptive loops redesigning online, and an
// operator reading history while it is written.
func runFleetFaulted(cfg runConfig) (*report, error) {
	return runFleet(cfg, fleetWorkload{apps: workloads.All(), strike: true, adaptive: true, poll: true})
}

// loopSpec is one loop's inputs, derived from the seed.
type loopSpec struct {
	name     string
	app      sim.Workload
	seed     int64 // processor seed; the fault injector uses seed+1
	faults   experiments.FaultClass
	adaptive bool
}

// planLoops derives every loop's inputs from the seed: batched loops
// first (lane i is loop i), then the adaptive loops.
func planLoops(seed int64, sc scale, fw fleetWorkload) []loopSpec {
	rng := rand.New(rand.NewSource(seed))
	apps := make([]sim.Workload, sc.fleetLoops)
	for i := range apps {
		apps[i] = fw.apps[i%len(fw.apps)]
	}
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	classes := experiments.FaultClasses(sc.fleetEpochs)
	var sensorActuator []experiments.FaultClass
	var drift experiments.FaultClass
	for _, c := range classes {
		if len(c.Plant) > 0 {
			drift = c
		} else {
			sensorActuator = append(sensorActuator, c)
		}
	}
	// The fault windows of the struck loops, and those of the adaptive
	// loops, are spread evenly over the run instead of all starting at
	// epochs/4, so that every stretch of the run carries the same share
	// of faulted loops and the per-window medians see the fault handling.
	span := sc.fleetEpochs - (sc.fleetEpochs*3/8 - sc.fleetEpochs/4)
	struck := (sc.fleetLoops + sc.strikeEvery - 1) / sc.strikeEvery
	// Struck loops take the classes in turn from a seeded offset, so
	// every class strikes equally often.
	offset := rng.Intn(len(sensorActuator))
	specs := make([]loopSpec, 0, sc.fleetLoops+sc.adaptiveLoops)
	for i := 0; i < sc.fleetLoops; i++ {
		s := loopSpec{name: fmt.Sprintf("loop-%03d", i), app: apps[i], seed: seed*100003 + int64(i)*2}
		if n := i / sc.strikeEvery; fw.strike && i%sc.strikeEvery == 0 {
			s.faults = staggered(sensorActuator[(offset+n)%len(sensorActuator)], n*span/struck)
		}
		specs = append(specs, s)
	}
	if fw.adaptive {
		namd, _ := workloads.ByName(experiments.FaultSweepWorkload)
		for j := 0; j < sc.adaptiveLoops; j++ {
			specs = append(specs, loopSpec{
				name: fmt.Sprintf("adaptive-%d", j), app: namd,
				seed:   seed*100003 + int64(sc.fleetLoops+j)*2,
				faults: staggered(drift, j*span/sc.adaptiveLoops), adaptive: true,
			})
		}
	}
	return specs
}

// staggered returns c with every windowed fault moved to start at epoch
// from, keeping its length. Faults without a window stay as they are.
func staggered(c experiments.FaultClass, from int) experiments.FaultClass {
	out := experiments.FaultClass{Name: c.Name}
	for _, f := range c.Sensor {
		if f.Until > 0 {
			f.From, f.Until = from, from+f.Until-f.From
		}
		out.Sensor = append(out.Sensor, f)
	}
	for _, f := range c.Actuator {
		if f.Until > 0 {
			f.From, f.Until = from, from+f.Until-f.From
		}
		out.Actuator = append(out.Actuator, f)
	}
	for _, f := range c.Plant {
		if f.Until > 0 {
			f.From, f.Until = from, from+f.Until-f.From
		}
		out.Plant = append(out.Plant, f)
	}
	return out
}

// newLoop builds one loop's plant and controller exactly as the fleet
// and the replay both need them: batched loops supervise a clone of
// proto, adaptive loops are the fault sweep's adaptive architecture.
func newLoop(s loopSpec, seed int64, proto *core.MIMOController) (*sim.FaultInjector, *supervisor.Supervised, error) {
	proc, err := sim.NewProcessor(s.app, sim.DefaultProcessorOptions(), s.seed)
	if err != nil {
		return nil, nil, err
	}
	inj := sim.NewFaultInjector(proc, s.seed+1)
	for _, f := range s.faults.Sensor {
		inj.AddSensorFault(f)
	}
	for _, f := range s.faults.Actuator {
		inj.AddActuatorFault(f)
	}
	for _, f := range s.faults.Plant {
		inj.AddPlantFault(f)
	}
	var sup *supervisor.Supervised
	if s.adaptive {
		if sup, err = experiments.NewAdaptiveSupervised(seed); err != nil {
			return nil, nil, err
		}
	} else {
		sup = supervisor.New(proto.Clone(), supervisor.Options{})
	}
	sup.Reset()
	sup.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	return inj, sup, nil
}

// designProto designs the batched loops' controller from scratch, with
// the spec experiments.DesignedMIMO(false, seed) uses.
func designProto(seed int64) (*core.MIMOController, error) {
	ctrl, _, err := core.DesignMIMO(core.DesignSpec{
		Training:   experiments.TrainingWorkloads(),
		Validation: experiments.ValidationWorkloads(),
		Seed:       seed,
	})
	return ctrl, err
}

// fleet is one set-up fleet: the batched engine, the scalar loops, and
// the observation plane every loop is wired to.
type fleet struct {
	specs   []loopSpec
	proto   *core.MIMOController
	injs    []*sim.FaultInjector
	sups    []*supervisor.Supervised
	eng     *batch.SupEngine
	lanes   int // batched loops; sups[lanes:] step scalar
	tels    []sim.Telemetry
	outs    []sim.Config
	errs    []error
	bad     []bool // this epoch's configuration failed validation
	digests []uint64

	obs  *obs.Fleet
	bus  *obs.Bus
	sink *ingestSink
	hist *tsdb.DB

	// quiet is held by a poll and by a calibration, which must not
	// overlap.
	quiet sync.Mutex
}

// ingestSink is the bus sink in front of the history recorder. It counts
// the events it passes on and, on a traced run, times the recorder.
type ingestSink struct {
	rec    *tsdb.Recorder
	timed  bool
	events atomic.Uint64 // read by the operator while the pump writes
	busyNs int64
}

// WriteEvents implements obs.Sink. The count moves once the batch is in
// history, so a reader that sees it can query the batch's loops.
func (s *ingestSink) WriteEvents(batch []obs.Event) error {
	t0 := time.Now()
	err := s.rec.WriteEvents(batch)
	if s.timed {
		s.busyNs += int64(time.Since(t0))
	}
	s.events.Add(uint64(len(batch)))
	return err
}

// buildFleet sets up a fleet: design, plants, supervisors, the batch
// engine, and the observation plane (a registry, a 16384-event bus and
// a history recorder), each loop wired the way the experiment harness
// wires one.
func buildFleet(seed int64, specs []loopSpec, lanes int, timedIngest bool) (*fleet, error) {
	proto, err := designProto(seed)
	if err != nil {
		return nil, err
	}
	f := &fleet{
		specs: specs, proto: proto, lanes: lanes,
		eng:     batch.NewSupervised(),
		tels:    make([]sim.Telemetry, len(specs)),
		outs:    make([]sim.Config, len(specs)),
		errs:    make([]error, len(specs)),
		bad:     make([]bool, len(specs)),
		digests: make([]uint64, len(specs)),
		hist:    tsdb.New(tsdb.Options{}),
	}
	rec := tsdb.NewRecorder(f.hist, func(id uint32) string { return f.obs.LoopName(id) })
	f.sink = &ingestSink{rec: rec, timed: timedIngest}
	f.bus = obs.NewBus(1<<14, f.sink)
	f.obs = obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry(), Bus: f.bus})
	for i, s := range specs {
		inj, sup, err := newLoop(s, seed, proto)
		if err != nil {
			f.close()
			return nil, err
		}
		l := f.obs.Register(s.name)
		sup.SetLoopObs(l)
		if scope := l.Scope(); scope.Enabled() {
			sup.BindTelemetry(scope)
			if ad := sup.Adapter(); ad != nil {
				ad.BindTelemetry(scope)
			}
		}
		f.injs = append(f.injs, inj)
		f.sups = append(f.sups, sup)
		f.tels[i] = inj.Step()
		f.digests[i] = fnvOffset
		if i < lanes {
			id, err := f.eng.Add(sup)
			if err != nil {
				f.close()
				return nil, fmt.Errorf("admit %s: %w", s.name, err)
			}
			if id != i {
				f.close()
				return nil, fmt.Errorf("admit %s: lane %d, want %d", s.name, id, i)
			}
		}
	}
	return f, nil
}

// close drains the bus into the history recorder and stops its pump.
func (f *fleet) close() error { return f.bus.Close() }

// phase is what one measured run of a fleet recorded. The run is cut
// into equal windows of epochs; window w covers the epochs before
// windowEnd[w], and the host is calibrated between windows.
type phase struct {
	windowEnd  []int
	windowS    []float64 // wall time per window
	windowCPUS []float64 // user+system CPU time per window
	cal        calibrated
	controlMS  []float64 // control-phase time per epoch
	wall       float64   // whole run, calibrations included
	badEpochs  int64
	backoffS   float64
	gc         gcDelta
	polls      pollStats
	fused      int64 // traced only: lane-epochs ending on the fused path
	evictions  int64
	readmits   int64
}

// metrics returns the phase's measurements for a fleet of loops loops:
// throughput, CPU time per loop-epoch, and the control phase's median
// and tail. Each is computed per window and the median across windows
// is reported, so a burst of contention from outside the process moves
// a few windows and not the result.
func (p *phase) metrics(loops int) map[string]float64 {
	var rate, cpu, p50, tail []float64
	start := 0
	for w, end := range p.windowEnd {
		work := float64(loops * (end - start))
		ms := p.controlMS[start:end]
		rate = append(rate, work/p.windowS[w])
		cpu = append(cpu, p.windowCPUS[w]/work*1e6)
		p50 = append(p50, median(ms))
		tail = append(tail, percentile(ms, tailQuantile(len(ms))))
		start = end
	}
	return map[string]float64{
		"work_per_s":      median(rate),
		"cpu_per_work_us": median(cpu),
		"latency_p50_ms":  median(p50),
		"latency_tail_ms": median(tail),
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold mixes one applied configuration into a loop's FNV-1a digest.
func fold(h uint64, c sim.Config) uint64 {
	for _, v := range [...]int{c.FreqIdx, c.CacheIdx, c.ROBIdx} {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

// step runs one fleet epoch. The control phase steps every controller,
// validates and applies each configuration, and reports each outcome;
// the plant phase advances every plant. On a sampled epoch each group of
// calls is a span under the epoch's "control" or the "sim.step" span.
func (f *fleet) step(k int, tr *tracer, p *phase) {
	n := len(f.specs)
	trace := int64(k)
	ep := tr.begin("epoch", trace, -1)
	ctl := tr.begin("control", trace, ep)
	c0 := time.Now()
	id := tr.begin("batch.step_all", trace, ctl)
	if err := f.eng.StepAll(f.tels[:f.lanes], f.outs[:f.lanes]); err != nil {
		panic(err) // the slices are sized to the engine at set-up
	}
	tr.end(id)
	id = tr.begin("supervisor.step", trace, ctl)
	for i := f.lanes; i < n; i++ {
		f.outs[i] = f.sups[i].Step(f.tels[i])
	}
	tr.end(id)
	id = tr.begin("sim.apply", trace, ctl)
	for i := 0; i < n; i++ {
		f.bad[i] = f.outs[i].Validate() != nil
		if f.bad[i] {
			f.outs[i] = f.tels[i].Config
		}
		f.errs[i] = f.injs[i].Apply(f.outs[i])
		f.digests[i] = fold(f.digests[i], f.outs[i])
	}
	tr.end(id)
	id = tr.begin("batch.observe_apply", trace, ctl)
	for i := 0; i < f.lanes; i++ {
		f.eng.ObserveApply(i, f.outs[i], f.errs[i])
	}
	for i := f.lanes; i < n; i++ {
		f.sups[i].ObserveApply(f.outs[i], f.errs[i])
	}
	tr.end(id)
	p.controlMS = append(p.controlMS, float64(time.Since(c0))/1e6)
	tr.end(ctl)

	id = tr.begin("sim.step", trace, ep)
	for i := 0; i < n; i++ {
		t := f.injs[i].Step()
		if f.bad[i] || !finite(t.TrueIPS) || !finite(t.TruePowerW) {
			p.badEpochs++
		}
		f.tels[i] = t
	}
	tr.end(id)
	tr.end(ep)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// run steps the fleet for epochs epochs, with the operator polling
// every pollEvery epochs when it is not 0. Before each epoch, while the
// bus is more than half full, the stepper yields until the pump drains
// it, so history stays lossless: a slow ingest lowers throughput instead
// of dropping events. A traced run samples every sampleEvery-th epoch
// into spans and tallies lane evictions by polling Parked.
func (f *fleet) run(epochs int, tr *tracer, pollEvery int) phase {
	var p phase
	p.controlMS = make([]float64, 0, epochs)
	var parked []bool
	if tr != nil {
		parked = make([]bool, f.lanes)
	}
	var poller *operator
	if pollEvery > 0 {
		poller = startOperator(f, tr)
	}
	gc0 := readGC()
	start := time.Now()
	f.calibrate(&p.cal)
	w0, cpu0 := time.Now(), cpuSeconds()
	half := uint64(f.bus.Cap() / 2)
	for k := 0; k < epochs; k++ {
		if f.bus.Occupancy() > half {
			id := tr.begin("obs.backpressure", int64(k), -1)
			b0 := time.Now()
			for f.bus.Occupancy() > half {
				runtime.Gosched()
			}
			p.backoffS += time.Since(b0).Seconds()
			tr.end(id)
		}
		var sampled *tracer
		if tr != nil && k%sampleEvery == 0 {
			sampled = tr
		}
		f.step(k, sampled, &p)
		if poller != nil && (k+1)%pollEvery == 0 {
			poller.poll <- k / pollEvery
		}
		if parked != nil {
			for i := range parked {
				now := f.eng.Parked(i)
				switch {
				case now && !parked[i]:
					p.evictions++
				case !now && parked[i]:
					p.readmits++
				}
				if !now {
					p.fused++
				}
				parked[i] = now
			}
		}
		if (k+1)*windows/epochs != k*windows/epochs {
			now, cpu := time.Now(), cpuSeconds()
			p.windowEnd = append(p.windowEnd, k+1)
			p.windowS = append(p.windowS, now.Sub(w0).Seconds())
			p.windowCPUS = append(p.windowCPUS, cpu-cpu0)
			f.calibrate(&p.cal)
			w0, cpu0 = time.Now(), cpuSeconds()
		}
	}
	p.wall = time.Since(start).Seconds()
	p.gc = readGC().since(gc0)
	if poller != nil {
		p.polls = poller.stop()
	}
	return p
}

// calibrate marks a window boundary of c while the rest of the process
// is idle: the bus drained and no poll in flight, so the calibration
// measures the host and not the program.
func (f *fleet) calibrate(c *calibrated) {
	f.quiet.Lock()
	defer f.quiet.Unlock()
	for f.bus.Occupancy() > 0 {
		runtime.Gosched()
	}
	c.mark()
}

// runFleet sets the fleet up scale.setupReps times (setup_s is the
// median), runs it, and checks it. A traced run first runs untraced,
// then runs a second, identical fleet traced, and reports the
// difference as trace_overhead_frac.
func runFleet(cfg runConfig, fw fleetWorkload) (*report, error) {
	sc := cfg.scale
	rep := newReport()
	specs := planLoops(cfg.seed, sc, fw)
	if fw.adaptive {
		// The adaptive loops take their design from the experiments
		// cache. It is the same design every set-up below repeats from
		// scratch for the batched loops, so it is warmed once here.
		if _, _, err := experiments.DesignedMIMO(false, cfg.seed); err != nil {
			return nil, err
		}
	}
	var f *fleet
	var setupS []float64
	var setupCal calibrated
	for r := 0; r < sc.setupReps; r++ {
		setupCal.mark()
		t0 := time.Now()
		next, err := buildFleet(cfg.seed, specs, sc.fleetLoops, false)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if f != nil {
			f.close()
		}
		f = next
	}

	var poll int
	if fw.poll {
		poll = sc.pollEvery
	}
	p := f.run(sc.fleetEpochs, nil, poll)
	rss := peakRSSMB()
	raw := p.metrics(len(specs))
	raw["setup_s"], raw["peak_rss_mb"] = median(setupS), rss
	rep.endToEnd(raw, slowdown(setupCal, p.cal))
	work := float64(len(specs)) * float64(sc.fleetEpochs)
	checkPhase(rep, f, p, work)

	if cfg.trace {
		// The traced fleet replaces the untraced one, which must make
		// the same control decisions.
		digests := f.digests
		f = nil
		tr := newTracer()
		var err error
		if f, err = buildFleet(cfg.seed, specs, sc.fleetLoops, true); err != nil {
			return nil, err
		}
		var tp phase
		shares, err := profileCPU(cfg, func() { tp = f.run(sc.fleetEpochs, tr, poll) })
		if err != nil {
			return nil, err
		}
		checkPhase(rep, f, tp, work)
		for i := range digests {
			rep.check(f.digests[i] == digests[i])
		}
		m := layerMetrics(f, &tp, tr)
		for k, v := range shares {
			m[k] = v
		}
		m["trace_overhead_frac"] = hostTime.atReferenceSpeed(median(tp.windowS), slowdown(tp.cal))/
			hostTime.atReferenceSpeed(median(p.windowS), slowdown(p.cal)) - 1
		rep.layers(m, slowdown(tp.cal))
		if err := finishTrace(cfg, tr, rep); err != nil {
			return nil, err
		}
	}

	for _, i := range pickReplays(cfg.seed, f, fw, rep) {
		got, err := replay(cfg.seed, f.specs[i], f.proto, sc.fleetEpochs)
		if err != nil {
			return nil, err
		}
		ok := got == f.digests[i]
		if !ok {
			logf("replay %s: applied configurations differ from the fleet run", f.specs[i].name)
		}
		rep.check(ok)
	}
	return rep, nil
}

// checkPhase closes the fleet and tallies its correctness checks: every
// loop-epoch, every poll, and the event accounting (published + dropped
// = offered, and the history sink saw exactly the published events).
func checkPhase(rep *report, f *fleet, p phase, work float64) {
	rep.attempted += int64(work) + p.polls.count
	rep.failed += p.badEpochs + p.polls.failed
	if err := f.close(); err != nil {
		logf("bus sink: %v", err)
		rep.check(false)
	}
	published, dropped, _ := f.bus.Stats()
	ok := float64(published+dropped) == work && f.sink.events.Load() == published
	if !ok {
		logf("events: %d published + %d dropped, %d offered, %d ingested", published, dropped, uint64(work), f.sink.events.Load())
	}
	rep.check(ok)
}

// layerMetrics derives the per-layer metrics of a traced fleet run.
func layerMetrics(f *fleet, p *phase, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	lanes := float64(f.lanes)
	all := float64(len(f.specs))
	perCall := func(span string, calls float64) float64 { return median(tr.durations(span)) / calls }
	latency := p.metrics(len(f.specs))
	m["latency_p50_ms"], m["latency_tail_ms"] = latency["latency_p50_ms"], latency["latency_tail_ms"]
	m["sim.step_ns"] = perCall("sim.step", all)
	m["sim.apply_ns"] = perCall("sim.apply", all)
	m["batch.step_all_us"] = perCall("batch.step_all", 1e3)
	m["batch.lane_ns"] = perCall("batch.step_all", lanes)
	m["batch.observe_apply_ns"] = perCall("batch.observe_apply", all)
	m["batch.fused_frac"] = float64(p.fused) / (lanes * float64(len(p.controlMS)))
	m["batch.evictions"] = float64(p.evictions)
	m["batch.readmits"] = float64(p.readmits)
	if scalar := all - lanes; scalar > 0 {
		m["supervisor.step_us"] = perCall("supervisor.step", scalar*1e3)
	}
	for _, sup := range f.sups[f.lanes:] {
		st := sup.Adapter().Stats()
		m["adapt.redesigns"] += float64(st.Redesigns)
		m["adapt.swaps"] += float64(st.Swaps)
		m["adapt.reverts"] += float64(st.Reverts)
	}
	p.gc.report(m)
	if n := f.sink.events.Load(); n > 0 {
		m["tsdb.ingest_ns_per_event"] = float64(f.sink.busyNs) / float64(n)
	}
	m["tsdb.ingest_busy_frac"] = float64(f.sink.busyNs) / 1e9 / p.wall
	m["obs.backpressure_s"] = p.backoffS
	published, dropped, _ := f.bus.Stats()
	m["obs.published"] = float64(published)
	m["obs.dropped"] = float64(dropped)
	m["obs.occupancy_hwm"] = float64(f.bus.OccupancyHWM())
	if p.polls.count > 0 {
		m["obs.slo_http_ms"] = perCall("obs.slo_http", 1e6)
		m["tsdb.history_fleet_http_ms"] = perCall("tsdb.history_fleet_http", 1e6)
		m["tsdb.history_loop_http_ms"] = perCall("tsdb.history_loop_http", 1e6)
		m["poll_p50_ms"] = median(p.polls.ms)
		m["poll_p90_ms"] = percentile(p.polls.ms, 0.9)
	}
	return m
}

// pickReplays chooses the loops to replay: on a faulted fleet two that
// were evicted from the fused path (a fallback or a failed apply
// evicts) and two adaptive loops, then seeded picks up to replays.
// A faulted fleet with fewer than two of either fails the check.
func pickReplays(seed int64, f *fleet, fw fleetWorkload, rep *report) []int {
	rng := rand.New(rand.NewSource(seed + 1))
	chosen := map[int]bool{}
	var out []int
	take := func(cands []int, n int) int {
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		got := 0
		for _, c := range cands {
			if got == n || len(out) == replays {
				break
			}
			if !chosen[c] {
				chosen[c] = true
				out = append(out, c)
				got++
			}
		}
		return got
	}
	if fw.strike || fw.adaptive {
		var evicted, adaptive []int
		for i := range f.specs {
			if i >= f.lanes {
				adaptive = append(adaptive, i)
				continue
			}
			if h := f.eng.Health(i); h.Fallbacks > 0 || h.ApplyFailures > 0 {
				evicted = append(evicted, i)
			}
		}
		ok := take(evicted, 2) == 2 && take(adaptive, 2) == 2
		if !ok {
			logf("replay: the fleet has %d evicted and %d adaptive loops, want 2 of each", len(evicted), len(adaptive))
		}
		rep.check(ok)
	}
	all := make([]int, len(f.specs))
	for i := range all {
		all[i] = i
	}
	take(all, replays)
	return out
}

// replay runs one loop alone as a plain scalar supervised loop with no
// observation attached and returns the digest of its applied
// configurations.
func replay(seed int64, s loopSpec, proto *core.MIMOController, epochs int) (uint64, error) {
	inj, sup, err := newLoop(s, seed, proto)
	if err != nil {
		return 0, err
	}
	h := uint64(fnvOffset)
	tel := inj.Step()
	for k := 0; k < epochs; k++ {
		cfg := sup.Step(tel)
		if cfg.Validate() != nil {
			cfg = tel.Config
		}
		aerr := inj.Apply(cfg)
		h = fold(h, cfg)
		sup.ObserveApply(cfg, aerr)
		tel = inj.Step()
	}
	return h, nil
}

// operator is the mimostat user: on each request from the stepper it
// reads the SLO report, the fleet-wide tracking-error history and
// drillDowns per-loop histories through the public handlers, in process,
// while the fleet keeps stepping. Polls are requested every so many
// epochs rather than every so many seconds, so the operator's share of
// the work does not depend on how fast the fleet steps.
type operator struct {
	poll chan int // the poll number; closed to stop
	wg   sync.WaitGroup
	st   pollStats
}

type pollStats struct {
	count, failed int64
	ms            []float64
}

func startOperator(f *fleet, tr *tracer) *operator {
	o := &operator{poll: make(chan int)}
	slo := f.obs.SLOHandler()
	hist := f.hist.Handler()
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for n := range o.poll {
			// Every drill-down needs its loop's series: wait until one
			// whole epoch is in history.
			for f.sink.events.Load() < uint64(len(f.specs)) {
				time.Sleep(time.Millisecond)
			}
			f.quiet.Lock()
			root := tr.begin("poll", int64(n), -1)
			t0 := time.Now()
			ok := get(slo, "/slo", "obs.slo_http", tr, n, root)
			ok = get(hist, "/history?signal=track_err&res=auto", "tsdb.history_fleet_http", tr, n, root) && ok
			for j := 0; j < drillDowns; j++ {
				loop := f.specs[(n*drillDowns+j)*7%len(f.specs)].name
				q := "/history?loop=" + url.QueryEscape(loop) + "&signal=track_err&res=auto"
				ok = get(hist, q, "tsdb.history_loop_http", tr, n, root) && ok
			}
			o.st.ms = append(o.st.ms, float64(time.Since(t0))/1e6)
			tr.end(root)
			f.quiet.Unlock()
			o.st.count++
			if !ok {
				o.st.failed++
			}
		}
	}()
	return o
}

// stop ends the polling and returns what it measured.
func (o *operator) stop() pollStats {
	close(o.poll)
	o.wg.Wait()
	return o.st
}

// get serves one request in process; it fails on a non-200 status or an
// empty body.
func get(h http.Handler, target, spanName string, tr *tracer, n, parent int) bool {
	id := tr.begin(spanName, int64(n), parent)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	tr.end(id)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		logf("poll %s: status %d, %d bytes", target, rec.Code, rec.Body.Len())
		return false
	}
	return true
}
