package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mimoctl/internal/experiments"
)

// experiment is one entry of the experiment list a paper-suite pass runs.
type experiment struct {
	name string
	run  func(seed int64) (experiments.Tabular, error)
}

// suiteExperiments returns the list `mimoexp -exp all` runs, in its
// order, at mimoexp's default budgets or, with golden set, at the budgets
// the golden CSVs in internal/experiments/testdata/golden were rendered
// at. TableEDK runs at mimoexp's default k=3.
func suiteExperiments(golden bool) []experiment {
	b := func(def, gold int) int {
		if golden {
			return gold
		}
		return def
	}
	return []experiment{
		{"fig6", func(s int64) (experiments.Tabular, error) { return experiments.Fig6(s, b(0, 600)) }},
		{"fig7", func(s int64) (experiments.Tabular, error) { return experiments.Fig7(s, 8) }},
		{"fig8", func(s int64) (experiments.Tabular, error) { return experiments.Fig8(s, b(0, 400)) }},
		{"fig11", func(s int64) (experiments.Tabular, error) { return experiments.Fig11(s, b(0, 1200)) }},
		{"fig12", func(s int64) (experiments.Tabular, error) { return experiments.Fig12(s, b(0, 2000), b(0, 250)) }},
		{"fig9", func(s int64) (experiments.Tabular, error) { return experiments.Fig9(s, b(0, 1500)) }},
		{"fig10", func(s int64) (experiments.Tabular, error) { return experiments.Fig10(s, b(0, 1500)) }},
		{"edk", func(s int64) (experiments.Tabular, error) { return experiments.TableEDK(s, b(0, 1200), 3) }},
		{"ablation", func(s int64) (experiments.Tabular, error) { return experiments.Ablation(s, b(0, 800)) }},
		{"faults", func(s int64) (experiments.Tabular, error) { return experiments.FaultSweep(s, b(0, 1000)) }},
	}
}

// goldenCases are the cases behind the 11 golden CSVs, keyed by file
// name: the suite at golden budgets (TableEDK k=3 is ed3) plus ed1.
func goldenCases() []experiment {
	cases := suiteExperiments(true)
	for i := range cases {
		if cases[i].name == "edk" {
			cases[i].name = "ed3"
		}
	}
	return append(cases, experiment{"ed1", func(s int64) (experiments.Tabular, error) {
		return experiments.TableEDK(s, 1200, 1)
	}})
}

// warmDesigns resolves every design artifact a pass at seed needs, in
// the order BenchmarkExpAll's warmExpDesigns does, under one "setup"
// span per seed.
func warmDesigns(seed int64, tr *tracer) error {
	root := tr.begin("setup", seed, -1)
	defer tr.end(root)
	steps := []struct {
		span string
		run  func() error
	}{
		{"design.mimo", func() error { _, _, err := experiments.DesignedMIMO(false, seed); return err }},
		{"design.mimo3", func() error { _, _, err := experiments.DesignedMIMO(true, seed); return err }},
		{"design.decoupled", func() error { _, err := experiments.DesignedDecoupled(seed); return err }},
		{"design.best_static", func() error { _, err := experiments.BaselineFor(1, false, seed); return err }},
		{"design.best_static", func() error { _, err := experiments.BaselineFor(2, false, seed); return err }},
		{"design.best_static", func() error { _, err := experiments.BaselineFor(2, true, seed); return err }},
		{"design.best_static", func() error { _, err := experiments.BaselineFor(3, false, seed); return err }},
	}
	for _, st := range steps {
		id := tr.begin(st.span, seed, root)
		err := st.run()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s at seed %d: %w", st.span, seed, err)
		}
	}
	return nil
}

// passStats is what one run of passes measured: the wall and CPU time
// of every experiment run, by experiment, and a calibration before each.
type passStats struct {
	wallS, cpuS map[string][]float64
	cal         calibrated
	gc          gcDelta
}

// runPasses runs the experiment list once per seed, timing every
// experiment run from outside. Failed runs are counted in rep.
func runPasses(seeds []int64, exps []experiment, tr *tracer, rep *report) passStats {
	st := passStats{wallS: map[string][]float64{}, cpuS: map[string][]float64{}}
	gc0 := readGC()
	for pass, seed := range seeds {
		root := tr.begin("pass", int64(pass), -1)
		for _, e := range exps {
			st.cal.mark()
			id := tr.begin("experiments."+e.name, int64(pass), root)
			t0, cpu0 := time.Now(), cpuSeconds()
			_, err := e.run(seed)
			st.wallS[e.name] = append(st.wallS[e.name], time.Since(t0).Seconds())
			st.cpuS[e.name] = append(st.cpuS[e.name], cpuSeconds()-cpu0)
			tr.end(id)
			rep.check(err == nil)
			if err != nil {
				logf("%s at seed %d: %v", e.name, seed, err)
			}
		}
		tr.end(root)
	}
	st.gc = readGC().since(gc0)
	return st
}

// typical returns each experiment's median over the seeds, in list
// order. A burst of contention from outside the process slows a few
// runs and moves no median.
func typical(byExp map[string][]float64, exps []experiment) []float64 {
	out := make([]float64, len(exps))
	for i, e := range exps {
		out[i] = median(byExp[e.name])
	}
	return out
}

// runPaperSuite is the reproduction job: for each of scale.paperSeeds
// seeds it warms the designs (set-up), then runs one pass of the
// experiment list per seed with the designs warm, then checks the
// golden-budget outputs at the default seed byte for byte.
func runPaperSuite(cfg runConfig) (*report, error) {
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	seeds := make([]int64, cfg.scale.paperSeeds)
	var setupS []float64
	var setupCal calibrated
	for i := range seeds {
		seeds[i] = cfg.seed + int64(i)
		setupCal.mark()
		t0 := time.Now()
		if err := warmDesigns(seeds[i], tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	exps := suiteExperiments(cfg.scale.goldenBudgets)
	st := runPasses(seeds, exps, nil, rep)
	rss := peakRSSMB()
	wall := typical(st.wallS, exps)
	rep.endToEnd(map[string]float64{
		"setup_s":         median(setupS),
		"work_per_s":      float64(len(exps)) / sum(wall),
		"cpu_per_work_us": sum(typical(st.cpuS, exps)) / float64(len(exps)) * 1e6,
		"peak_rss_mb":     rss,
	}, slowdown(setupCal, st.cal))

	if cfg.trace {
		var traced passStats
		shares, err := profileCPU(cfg, func() { traced = runPasses(seeds, exps, tr, rep) })
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		for k, v := range shares {
			m[k] = v
		}
		for _, name := range []string{"design.mimo", "design.mimo3", "design.decoupled", "design.best_static"} {
			m[name+"_s"] = median(tr.perTrace(name)) / 1e9
		}
		tracedWall := typical(traced.wallS, exps)
		for i, e := range exps {
			m["experiments."+e.name+"_s"] = tracedWall[i]
		}
		m["latency_p50_ms"] = median(tracedWall) * 1e3
		m["latency_tail_ms"] = percentile(tracedWall, 1) * 1e3
		traced.gc.report(m)
		m["trace_overhead_frac"] = hostTime.atReferenceSpeed(sum(tracedWall), slowdown(traced.cal))/
			hostTime.atReferenceSpeed(sum(wall), slowdown(st.cal)) - 1
		rep.layers(m, slowdown(setupCal, traced.cal))
		if err := finishTrace(cfg, tr, rep); err != nil {
			return nil, err
		}
	}

	for _, c := range goldenCases() {
		rep.check(goldenMatches(cfg.root, c))
	}
	return rep, nil
}

// goldenMatches renders c at the default seed and compares it with its
// committed golden CSV.
func goldenMatches(root string, c experiment) bool {
	path := filepath.Join(root, "internal", "experiments", "testdata", "golden", c.name+".csv")
	want, err := os.ReadFile(path)
	if err != nil {
		logf("golden %s: %v", c.name, err)
		return false
	}
	res, err := c.run(experiments.DefaultSeed)
	if err != nil {
		logf("golden %s: %v", c.name, err)
		return false
	}
	var got bytes.Buffer
	if err := experiments.WriteCSV(&got, res); err != nil {
		logf("golden %s: render: %v", c.name, err)
		return false
	}
	if !bytes.Equal(got.Bytes(), want) {
		logf("golden %s: output differs from %s", c.name, path)
		return false
	}
	return true
}

// gcDelta is the collector's activity over a measured phase.
type gcDelta struct {
	cycles  uint32
	pauseNs uint64
	mallocs uint64
}

func readGC() gcDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcDelta{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, mallocs: ms.Mallocs}
}

func (g gcDelta) since(before gcDelta) gcDelta {
	return gcDelta{g.cycles - before.cycles, g.pauseNs - before.pauseNs, g.mallocs - before.mallocs}
}

func (g gcDelta) report(m map[string]float64) {
	m["gc.cycles"] = float64(g.cycles)
	m["gc.pause_ms"] = float64(g.pauseNs) / 1e6
	m["gc.allocs_m"] = float64(g.mallocs) / 1e6
}
