// Command mimoexp regenerates the paper's evaluation figures and tables
// on the simulated processor substrate.
//
// Usage:
//
//	mimoexp -exp fig6|fig7|fig8|fig9|fig10|fig11|fig12|edk|faults|all [flags]
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
// -metrics-addr serves live diagnostics and attaches the fleet
// observability plane, whose registry receives the plant, controller,
// runner and harness instruments of every run (docs/GUIDE.md §10).
// Every supervised loop the fault sweep builds registers with the
// obs.Fleet, which serves /slo and /events and composes /healthz from
// the loops' last reported state (503 naming the first loop in
// supervisor fallback, failing its model-health monitor, or alerting on
// a control SLO; model-health and SLO warns, and baseline drift under
// -baseline, annotate a 200). -events and -history attach the fleet
// too, without the HTTP server or a registry.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/runner"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/tsdb"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run: fig6, fig7, fig8, fig9, fig10, fig11, fig12, edk, ablation, design, faults, all")
		seed        = flag.Int64("seed", experiments.DefaultSeed, "random seed for all stochastic behaviour")
		epochs      = flag.Int("epochs", 0, "override the experiment's epoch budget (0 = experiment default)")
		k           = flag.Int("k", 3, "metric exponent for -exp edk: 1 = E, 3 = E×D²")
		format      = flag.String("format", "text", "output format: text or csv")
		parallel    = flag.Int("parallel", runner.DefaultWorkers(), "experiment worker count: 0 = serial, N = pool of N workers (output is byte-identical either way)")
		metricsAddr = flag.String("metrics-addr", "", "serve live diagnostics (/metrics, /healthz, /slo, /events, /debug/pprof) on this address (e.g. :8090) with the fleet observability plane attached (watch with cmd/mimostat); empty disables")
		frDir       = flag.String("flightrec-dir", "", "record every member of every experiment row and every fault-sweep run, and dump each ring to this directory; empty disables")
		eventsPath  = flag.String("events", "", "write one JSONL event per supervised epoch per loop to this file")
		historyOn   = flag.Bool("history", false, "record per-loop telemetry history into the embedded time-series store, served on /history (watch with cmd/mimostat)")
		basePath    = flag.String("baseline", "", "compare live history against this committed baseline snapshot and surface drift on /healthz (implies -history)")
		baseOutPath = flag.String("baseline-out", "", "capture a baseline snapshot of this run's history to this path on exit (implies -history)")
	)
	flag.Parse()
	outputCSV = *format == "csv"
	experiments.SetParallelism(*parallel)
	if *frDir != "" {
		if err := os.MkdirAll(*frDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		experiments.SetFlightRecording(*frDir)
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterGoMetrics(reg)
	}

	wantHistory := *historyOn || *basePath != "" || *baseOutPath != ""
	var fleet *obs.Fleet
	var hist *tsdb.DB
	var warns []func() (string, bool) // extra /healthz warn sources
	if *metricsAddr != "" || *eventsPath != "" || wantHistory {
		var sinks []obs.Sink
		if *eventsPath != "" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			// The name resolver closes over fleet, assigned below.
			sinks = append(sinks, obs.NewJSONLSink(f, func(id uint32) string { return fleet.LoopName(id) }))
		}
		var rec *tsdb.Recorder
		if wantHistory {
			hist = tsdb.New(tsdb.Options{})
			rec = tsdb.NewRecorder(hist, func(id uint32) string { return fleet.LoopName(id) })
			sinks = append(sinks, rec)
			if *basePath != "" {
				base, err := tsdb.ReadBaseline(*basePath)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				det := tsdb.NewDetector(hist, base)
				rec.SetDetector(det)
				warns = append(warns, det.Annotation)
			}
			// Registered before the bus-closing defer below so it runs after
			// the bus has drained into the recorder.
			defer func() {
				rec.Sync()
				if *baseOutPath == "" {
					return
				}
				from, to, ok := hist.EpochRange()
				if !ok {
					fmt.Fprintln(os.Stderr, "baseline-out: no history recorded, nothing to capture")
					return
				}
				b := tsdb.CaptureBaseline(hist, tsdb.BaselineSignals, from, to)
				if err := tsdb.WriteBaseline(*baseOutPath, b); err != nil {
					fmt.Fprintf(os.Stderr, "baseline-out: %v\n", err)
					return
				}
				fmt.Fprintf(os.Stderr, "baseline captured to %s (epochs %d..%d)\n", *baseOutPath, from, to)
			}()
		}
		bus := obs.NewBus(1<<14, sinks...)
		defer func() {
			if err := bus.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "event sink: %v\n", err)
			}
		}()
		fleet = obs.NewFleet(obs.Options{Registry: reg, Bus: bus})
		experiments.SetObservability(fleet)
	}

	if *metricsAddr != "" {
		opts := telemetry.ServerOptions{
			Registry: reg,
			Health:   func() (bool, string) { return fleet.Healthz(warns...) },
			Extra:    fleet.Endpoints(),
		}
		if hist != nil {
			opts.Extra = append(opts.Extra, hist.Endpoint())
		}
		srv, err := telemetry.StartServer(*metricsAddr, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "diagnostics on http://%s/ (metrics, healthz, slo, events, debug/pprof)\n", srv.Addr())
	}

	runners := map[string]func() error{
		"fig6":     func() error { return run1(experiments.Fig6(*seed, *epochs)) },
		"fig7":     func() error { return run1(experiments.Fig7(*seed, 8)) },
		"fig8":     func() error { return run1(experiments.Fig8(*seed, *epochs)) },
		"fig9":     func() error { return run1(experiments.Fig9(*seed, *epochs)) },
		"fig10":    func() error { return run1(experiments.Fig10(*seed, *epochs)) },
		"fig11":    func() error { return run1(experiments.Fig11(*seed, *epochs)) },
		"fig12":    func() error { return run1(experiments.Fig12(*seed, *epochs, 0)) },
		"edk":      func() error { return run1(experiments.TableEDK(*seed, *epochs, *k)) },
		"ablation": func() error { return run1(experiments.Ablation(*seed, *epochs)) },
		"design":   func() error { return printDesign(*seed) },
		"faults":   func() error { return run1(experiments.FaultSweep(*seed, *epochs)) },
	}
	order := []string{"design", "fig6", "fig7", "fig8", "fig11", "fig12", "fig9", "fig10", "edk", "ablation", "faults"}

	names := []string{*exp}
	if *exp == "all" {
		names = order
	}
	for _, name := range names {
		runner, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
		t0 := time.Now()
		if err := runner(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		// Timing goes to stderr: stdout carries only the experiment's
		// rows, which are byte-identical at any -parallel value.
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(t0).Round(time.Millisecond))
		fmt.Println()
	}
}

// textResult is any experiment result that can render itself.
type textResult interface{ WriteText(w io.Writer) }

// run1 adapts the (result, error) returns of the experiment functions,
// honoring the -format flag (every result also implements
// experiments.Tabular for CSV).
func run1(res textResult, err error) error {
	if err != nil {
		return err
	}
	if outputCSV {
		if tab, ok := res.(experiments.Tabular); ok {
			return experiments.WriteCSV(os.Stdout, tab)
		}
	}
	res.WriteText(os.Stdout)
	return nil
}

// outputCSV is set from the -format flag before any experiment runs.
var outputCSV bool

// printDesign reports the Fig. 3 design-flow diagnostics for the
// standard 2- and 3-input controllers.
func printDesign(seed int64) error {
	for _, three := range []bool{false, true} {
		ctrl, rep, err := experiments.DesignedMIMO(three, seed)
		if err != nil {
			return err
		}
		label := "2-input (frequency, cache)"
		if three {
			label = "3-input (frequency, cache, ROB)"
		}
		fmt.Printf("MIMO design, %s:\n", label)
		fmt.Printf("  model dimension:        %d\n", rep.Model.SS.Order())
		fmt.Printf("  training fit (IPS, P):  %.1f%%, %.1f%%\n", rep.TrainingFit[0], rep.TrainingFit[1])
		if len(rep.ValidationErr) == 2 {
			fmt.Printf("  validation err (IPS,P): %.1f%%, %.1f%%  (paper: 14%%, 10%%)\n",
				100*rep.ValidationErr[0], 100*rep.ValidationErr[1])
		}
		fmt.Printf("  guardbands (IPS, P):    %.0f%%, %.0f%%\n", 100*rep.Guardbands[0], 100*rep.Guardbands[1])
		fmt.Printf("  robust stability:       nominal=%v robust=%v peak=%.3f margin=%.2f (after %d redesigns)\n",
			rep.RSA.NominallyStable, rep.RSA.RobustlyStable, rep.RSA.PeakGain, rep.RSA.Margin, rep.RSAIterations)
		fmt.Printf("  final input weights:    %v\n", rep.FinalInputWeights)
		ips, p := ctrl.Targets()
		fmt.Printf("  default targets:        %.1f BIPS, %.1f W\n\n", ips, p)
	}
	return nil
}
