// Command mimobench is the repository's end-to-end benchmark. It runs one
// workload per process and reports that workload's end-to-end metrics
// (untraced run) or per-layer metrics (traced run, -trace 1):
//
//	bash bench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
//	.bench_build/mimobench -compare A.jsonl B.jsonl
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit status is non-zero when a correctness
// check failed. See bench/README.md for the workloads, the metrics and
// which layer metric moves which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mimoctl/internal/experiments"
)

// workload is one benchmark input mix and the function that runs it.
type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

var workloadTable = []workload{
	{"paper-suite", runPaperSuite},
	{"fleet-steady", runFleetSteady},
	{"fleet-faulted", runFleetFaulted},
}

// runConfig is what one workload run receives.
type runConfig struct {
	workload string
	seed     int64
	trace    bool
	scale    scale
	// root is the repository root (golden files are read from it); out
	// is the directory trace and profile files are written to.
	root, out string
}

// scale sizes a run. fullScale derives it from -seconds; the tests use
// toyScale.
type scale struct {
	// paperSeeds is the number of experiment seeds a paper-suite run
	// warms and runs one pass of the experiment list over.
	paperSeeds int
	// goldenBudgets runs the passes at the golden-file epoch budgets
	// instead of mimoexp's defaults.
	goldenBudgets bool
	// fleetLoops batched loops plus adaptiveLoops scalar ones are
	// stepped for fleetEpochs epochs.
	fleetLoops, adaptiveLoops, fleetEpochs int
	// strikeEvery: on fleet-faulted every strikeEvery-th batched loop is
	// struck by a sensor or actuator fault class.
	strikeEvery int
	// pollEvery is the operator's mimostat refresh interval, in fleet
	// epochs.
	pollEvery int
	// setupReps is how many times each run sets its fleet up; setup_s
	// is the median.
	setupReps int
}

// fullScale sizes the measured work so that a run takes about the given
// number of seconds on the reference host (2 vCPUs): one paper-suite
// pass takes about 2.5 s and one fleet epoch about 0.3 ms, so the
// operator's poll every 300 epochs comes about every 100 ms. The amount
// of work depends only on the argument, never on how fast this build
// runs, so two builds are always measured on the same work.
func fullScale(seconds int) scale {
	return scale{
		paperSeeds:    max(1, seconds*2/5),
		fleetLoops:    256,
		adaptiveLoops: 8,
		fleetEpochs:   max(1000, seconds*3000),
		strikeEvery:   8,
		pollEvery:     300,
		setupReps:     11,
	}
}

// toyScale runs every workload end to end in a few seconds. Its fault
// windows are long enough, and its struck loops many enough, for the
// faulted fleet to evict lanes.
var toyScale = scale{
	paperSeeds:    1,
	goldenBudgets: true,
	fleetLoops:    16,
	adaptiveLoops: 2,
	fleetEpochs:   2000,
	strikeEvery:   2,
	pollEvery:     20,
	setupReps:     2,
}

// report is one workload run's outcome: every metric it measured, by
// name, and the correctness tally.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	// selfUS is the traced run's mean self time per span name.
	selfUS map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// endToEnd records the end-to-end metrics from their values as
// measured (raw) and the run's host slowdown (see calibrate.go): times
// are divided by it and rates multiplied, which states them at the quiet
// reference host's speed. Memory is reported as measured. The raw values
// are kept as raw.<name>.
func (r *report) endToEnd(raw map[string]float64, slowdown float64) {
	for _, d := range endToEnd {
		v := raw[d.name]
		r.metrics["raw."+d.name] = v
		r.metrics[d.name] = d.scale.atReferenceSpeed(v, slowdown)
	}
	r.metrics["host.slowdown"] = slowdown
}

// layers records a traced run's per-layer metrics from m, with 0 for a
// layer m lacks: the workload does not exercise it. Times are scaled to
// the reference host's speed like the end-to-end ones.
func (r *report) layers(m map[string]float64, slowdown float64) {
	for _, d := range perLayer {
		r.metrics[d.name] = d.scale.atReferenceSpeed(m[d.name], slowdown)
	}
}

// check counts one attempted operation, failing it when ok is false.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// metricDef names one reported metric, its unit, and how a slow host
// moves it.
type metricDef struct {
	name, unit string
	scale      scaling
}

// layer defines a per-layer metric: times are scaled to the reference
// host's speed, everything else is not.
func layer(name, unit string) metricDef {
	switch unit {
	case "s", "ms", "us", "ns":
		return metricDef{name, unit, hostTime}
	}
	return metricDef{name, unit, unscaled}
}

// endToEnd are the metrics of an untraced run; every workload reports
// all of them. A unit of work is one experiment run (one figure or table
// at one seed) on paper-suite and one loop-epoch on the fleets.
var endToEnd = []metricDef{
	{"setup_s", "s", hostTime},
	{"work_per_s", "1/s", hostRate},
	{"cpu_per_work_us", "us", hostTime},
	{"peak_rss_mb", "MB", unscaled},
}

// cpuPackages are the packages the traced run's CPU profile is reduced
// to, reported as cpu.<name>.
var cpuPackages = []string{
	"adapt", "batch", "core", "decoupled", "experiments", "health",
	"heuristic", "lqg", "lti", "mat", "obs", "robust", "runner", "sim",
	"supervisor", "sysid", "telemetry", "tsdb", "workloads",
	"math", "runtime",
}

// perLayer are the metrics of a traced run; every workload reports all
// of them, with 0 for a layer the workload does not exercise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		layer("design.mimo_s", "s"),
		layer("design.mimo3_s", "s"),
		layer("design.decoupled_s", "s"),
		layer("design.best_static_s", "s"),
	}
	for _, e := range suiteExperiments(false) {
		defs = append(defs, layer("experiments."+e.name+"_s", "s"))
	}
	defs = append(defs,
		layer("latency_p50_ms", "ms"),
		layer("latency_tail_ms", "ms"),
		layer("gc.cycles", "count"),
		layer("gc.pause_ms", "ms"),
		layer("gc.allocs_m", "millions"),
		layer("sim.step_ns", "ns"),
		layer("sim.apply_ns", "ns"),
		layer("batch.step_all_us", "us"),
		layer("batch.lane_ns", "ns"),
		layer("batch.observe_apply_ns", "ns"),
		layer("batch.fused_frac", "ratio"),
		layer("batch.evictions", "count"),
		layer("batch.readmits", "count"),
		layer("supervisor.step_us", "us"),
		layer("adapt.redesigns", "count"),
		layer("adapt.swaps", "count"),
		layer("adapt.reverts", "count"),
		layer("tsdb.ingest_ns_per_event", "ns"),
		layer("tsdb.ingest_busy_frac", "ratio"),
		layer("obs.backpressure_s", "s"),
		layer("obs.published", "count"),
		layer("obs.dropped", "count"),
		layer("obs.occupancy_hwm", "count"),
		layer("obs.slo_http_ms", "ms"),
		layer("tsdb.history_fleet_http_ms", "ms"),
		layer("tsdb.history_loop_http_ms", "ms"),
		layer("poll_p50_ms", "ms"),
		layer("poll_p90_ms", "ms"),
	)
	for _, p := range cpuPackages {
		defs = append(defs, layer("cpu."+p, "ratio"))
	}
	return append(defs, layer("trace_overhead_frac", "ratio"))
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mimobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-suite, fleet-steady or fleet-faulted")
	seed := fs.Int64("seed", experiments.DefaultSeed, "seed every input of the run derives from")
	seconds := fs.Int("seconds", 15, "size the measured work to take about this many seconds on the reference host")
	trace := fs.Int("trace", 0, "0: report end-to-end metrics; 1: traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for the result log, trace and CPU profile")
	compare := fs.Bool("compare", false, "compare two result logs given as arguments: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-compare needs two result logs")
			return 2
		}
		if err := compareLogs(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "-seconds must be at least 1")
		return 2
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		trace:    *trace == 1,
		scale:    fullScale(*seconds),
		root:     ".",
		out:      *out,
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *name, err)
		return 1
	}
	if err := emit(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *name, err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "%s: %d of %d checked operations failed\n", *name, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// runWorkload runs cfg.workload with the benchmark's fixed execution
// settings: two OS threads running Go code and two experiment workers.
func runWorkload(cfg runConfig) (*report, error) {
	for _, w := range workloadTable {
		if w.name != cfg.workload {
			continue
		}
		if _, err := os.Stat(filepath.Join(cfg.root, "internal", "experiments", "testdata", "golden")); err != nil {
			return nil, fmt.Errorf("repository sources not found under %s: %w", cfg.root, err)
		}
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		if err := mapCalibration(); err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(2)
		experiments.SetParallelism(2)
		return w.run(cfg)
	}
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
}

// resultRecord is the JSON object printed last.
type resultRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// logRecord is one line of the result log: the result and the run's
// identity, for -compare.
type logRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultRecord
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric the run measured, appends the result record
// to the log, and prints the record (the selected metric set only) as
// the last line.
func emit(w io.Writer, cfg runConfig, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	units := map[string]string{"host.slowdown": "ratio"}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
		units["raw."+d.name] = d.unit
	}
	for _, n := range sortedKeys(rep.metrics) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", cfg.workload, n, rep.metrics[n], units[n])
	}
	for _, n := range sortedKeys(rep.selfUS) {
		fmt.Fprintf(w, "%s self.%s %.6g us\n", cfg.workload, n, rep.selfUS[n])
	}
	fmt.Fprintf(w, "%s failed_frac %.6g ratio\n", cfg.workload, float64(rep.failed)/float64(max(rep.attempted, 1)))

	rec := resultRecord{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	logged := logRecord{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, resultRecord: rec}
	if err := appendJSONLine(filepath.Join(cfg.out, "results.jsonl"), logged); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// logf reports a diagnostic on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rusage returns the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // fails only for a bad argument
	}
	return ru
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}
