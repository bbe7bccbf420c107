// Command mimotrace runs one closed-loop experiment and emits a
// per-epoch trace for plotting — the raw data behind Figures 6, 11, and
// 12. Each row is the one per-epoch record (obs.Event) the flight
// recorder, the event bus and the history store share, in the same
// columns: targets, measured and true outputs, the Kalman innovation
// when the controller reports one, the requested and in-effect knob
// indices, and the supervisor mode.
//
// -format selects CSV (default) or JSONL, -every subsamples, and
// -metrics-addr additionally serves live diagnostics (/metrics,
// /healthz, /trace with the most recent records, /debug/pprof) while
// the run is in flight. The run is registered as the one loop of an
// obs.Fleet, which serves /slo (watch with cmd/mimostat) and composes
// /healthz from the loop's last epoch: 503 naming the loop while it is
// in supervisor fallback, fails its model-health monitor or alerts on a
// control SLO, in that order; warns annotate a 200.
//
// With -flightrec the run also keeps a control-loop flight recorder
// attached: the last epochs of controller internals are dumped to the
// given path on SIGQUIT, on supervisor fallback, and at exit, and
// served live at /debug/flightrec when -metrics-addr is set; diagnose a
// dump with cmd/mimodoctor.
//
// Examples:
//
//	mimotrace -workload namd -arch mimo -epochs 5000 > trace.csv
//	mimotrace -workload astar -arch heuristic -battery
//	mimotrace -workload milc -arch supervised -format jsonl -metrics-addr :8090
//	mimotrace -workload namd -arch supervised -flightrec run.frec > trace.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"syscall"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

func main() {
	var (
		workload    = flag.String("workload", "namd", "application to run (SPEC CPU2006 name)")
		arch        = flag.String("arch", "mimo", "controller: mimo, mimo3, heuristic, decoupled, baseline, supervised")
		epochs      = flag.Int("epochs", 5000, "number of 50 µs control epochs")
		ips         = flag.Float64("ips", core.DefaultIPSTarget, "IPS target (BIPS)")
		power       = flag.Float64("power", core.DefaultPowerTarget, "power target (W)")
		battery     = flag.Bool("battery", false, "drive targets from the battery/QoE scheduler (Fig. 12)")
		seed        = flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
		every       = flag.Int("every", 1, "emit every Nth epoch (must be >= 1)")
		format      = flag.String("format", "csv", "trace format: csv or jsonl")
		metricsAddr = flag.String("metrics-addr", "", "serve live diagnostics on this address (e.g. :8090); empty disables")
		frPath      = flag.String("flightrec", "", "keep a flight recorder attached and dump it to this path (SIGQUIT, supervisor fallback, and exit); empty disables")
		frCap       = flag.Int("flightrec-cap", 4096, "flight recorder ring capacity (records)")
	)
	flag.Parse()

	if *every < 1 {
		fatal(fmt.Errorf("-every must be >= 1, got %d", *every))
	}
	out := bufio.NewWriter(os.Stdout)
	var sink obs.Sink
	switch *format {
	case "csv":
		sink = obs.NewCSVSink(out, nil)
	case "jsonl":
		sink = obs.NewJSONLSink(out, nil)
	default:
		fatal(fmt.Errorf("unknown -format %q (want csv or jsonl)", *format))
	}

	var frec *flightrec.Recorder
	if *frPath != "" {
		frec = flightrec.New(*frCap)
		frec.SetOnDump(func(reason string, r *flightrec.Recorder) {
			if err := r.WriteFile(*frPath, reason); err != nil {
				fmt.Fprintf(os.Stderr, "flightrec dump: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "flightrec dump (%s) -> %s\n", reason, *frPath)
		})
		stop := flightrec.DumpOnSignal(frec, syscall.SIGQUIT, *frPath, func(err error) {
			fmt.Fprintf(os.Stderr, "flightrec signal dump: %v\n", err)
		})
		defer stop()
	}

	// trace keeps the most recent records for /trace; the harness
	// appends every epoch, so its sequence (from 1) is the epoch
	// number. loop is the run's handle in the one-loop fleet behind
	// /healthz, and reg the registry its processor and controller
	// report to.
	var trace *flightrec.Recorder
	var loop *obs.Loop
	var reg *telemetry.Registry
	if *metricsAddr != "" {
		trace = flightrec.New(0)
		reg = telemetry.NewRegistry()
		telemetry.RegisterGoMetrics(reg)
		fleet := obs.NewFleet(obs.Options{Registry: reg})
		loop = fleet.Register(*arch + "/" + *workload)
		srv, err := telemetry.StartServer(*metricsAddr, telemetry.ServerOptions{
			Registry: reg,
			Health:   func() (bool, string) { return fleet.Healthz() },
			Extra:    append(append(fleet.Endpoints(), flightrecEndpoints(frec)...), traceEndpoint(trace)),
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "diagnostics on http://%s/ (metrics, healthz, slo, trace, debug/pprof)\n", srv.Addr())
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	ctrl, err := buildController(*arch, *seed)
	if err != nil {
		fatal(err)
	}
	ctrl.SetTargets(*ips, *power)
	if frec != nil {
		rc, ok := ctrl.(flightrec.Recordable)
		if !ok {
			fatal(fmt.Errorf("-flightrec: architecture %q does not support flight recording", *arch))
		}
		frec.SetMeta(flightrec.Meta{
			Arch: *arch, Workload: *workload, Seed: *seed,
			TargetIPS: *ips, TargetPowerW: *power,
			FreqLevels: len(sim.FreqSettingsGHz), CacheLevels: len(sim.CacheSettings), ROBLevels: len(sim.ROBSettings),
		})
		rc.SetFlightRecorder(frec)
	}

	var sched *core.BatteryScheduler
	if *battery {
		sched, err = core.NewBatteryScheduler(core.BatteryScheduleConfig{
			InitialIPS: *ips, InitialPower: *power, TotalEnergyJ: 1.0,
		})
		if err != nil {
			fatal(err)
		}
	}

	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), *seed)
	if err != nil {
		fatal(err)
	}
	proc.BindTelemetry(reg)
	sup, supervised := ctrl.(*supervisor.Supervised)
	inner := ctrl
	if supervised {
		inner = sup.Inner()
	}
	if mimo, ok := inner.(*core.MIMOController); ok {
		mimo.BindTelemetry(reg)
	}
	if supervised && loop != nil {
		// The supervisor reports its own epochs, model health included.
		sup.SetLoopObs(loop)
		sup.BindTelemetry(loop.Scope())
	}

	ir, _ := ctrl.(supervisor.InnovationReporter)
	batch := make([]obs.Event, 1)
	var sinkErr error
	tel := proc.Step()
	for k := 0; k < *epochs; k++ {
		if sched != nil {
			if i, p, changed := sched.Step(tel); changed {
				ctrl.SetTargets(i, p)
			}
		}
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			if supervised {
				// The supervised runtime retries failed actuations and
				// falls back when they persist; report and continue.
				sup.ObserveApply(cfg, err)
			} else {
				fatal(err)
			}
		} else if supervised {
			sup.ObserveApply(cfg, nil)
		}
		tel = proc.Step()
		ev := &batch[0]
		fillEvent(ev, uint64(k+1), ctrl, ir, cfg, &tel)
		if supervised {
			ev.Mode = uint8(sup.Mode())
		}
		trace.Append(ev)
		if loop != nil && !supervised {
			// A copy: Observe restamps the epoch the trace keeps.
			fev := *ev
			loop.Observe(&fev)
		}
		if k%*every == 0 && sinkErr == nil {
			sinkErr = sink.WriteEvents(batch)
		}
	}
	if frec != nil {
		frec.RequestDump("run-complete")
	}
	// A trace whose tail was silently dropped (full disk, closed pipe)
	// must not exit 0: the first write or flush error is fatal.
	if err := out.Flush(); sinkErr == nil {
		sinkErr = err
	}
	if sinkErr != nil {
		fatal(sinkErr)
	}
}

// fillEvent writes the harness's record of epoch k (from 1, as the
// flight ring and the fleet loop count): cfg is the
// configuration the controller requested, tel the telemetry of the epoch
// it produced. Internals the harness cannot see (continuous request,
// excess, guardband) are NaN, as is the innovation of a controller that
// reports none.
func fillEvent(ev *obs.Event, k uint64, ctrl core.ArchController, ir supervisor.InnovationReporter, cfg sim.Config, tel *sim.Telemetry) {
	ti, tp := ctrl.Targets()
	nan := math.NaN()
	*ev = obs.Event{
		Epoch:       k,
		IPSTarget:   ti,
		PowerTarget: tp,
		IPS:         tel.IPS,
		PowerW:      tel.PowerW,
		TrueIPS:     tel.TrueIPS,
		TruePowerW:  tel.TruePowerW,
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
		CfgFreq:     int16(tel.Config.FreqIdx),
		CfgCache:    int16(tel.Config.CacheIdx),
		CfgROB:      int16(tel.Config.ROBIdx),
	}
	if ir != nil {
		if innov := ir.LastInnovation(); len(innov) >= 2 {
			ev.InnovIPS, ev.InnovPowerW = innov[0], innov[1]
		}
	}
}

// traceEndpoint serves the recent records as /trace: JSONL by default,
// CSV with ?format=csv.
func traceEndpoint(r *flightrec.Recorder) telemetry.Endpoint {
	return telemetry.Endpoint{
		Path: "/trace",
		Desc: "recent epoch records (JSONL; ?format=csv)",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			var sink obs.Sink
			if req.URL.Query().Get("format") == "csv" {
				w.Header().Set("Content-Type", "text/csv")
				sink = obs.NewCSVSink(w, nil)
			} else {
				w.Header().Set("Content-Type", "application/x-ndjson")
				sink = obs.NewJSONLSink(w, nil)
			}
			_ = sink.WriteEvents(r.Snapshot())
		}),
	}
}

// flightrecEndpoints mounts /debug/flightrec when a recorder is live.
func flightrecEndpoints(r *flightrec.Recorder) []telemetry.Endpoint {
	if r == nil {
		return nil
	}
	return []telemetry.Endpoint{{
		Path:    "/debug/flightrec",
		Desc:    "flight recorder dump (binary; ?format=jsonl)",
		Handler: flightrec.Handler(r),
	}}
}

func buildController(arch string, seed int64) (core.ArchController, error) {
	switch arch {
	case "mimo":
		ctrl, _, err := experiments.DesignedMIMO(false, seed)
		return ctrl, err
	case "mimo3":
		ctrl, _, err := experiments.DesignedMIMO(true, seed)
		return ctrl, err
	case "heuristic":
		return experiments.NewHeuristicTracker(false), nil
	case "decoupled":
		return experiments.DesignedDecoupled(seed)
	case "baseline":
		cfg, err := experiments.BaselineFor(2, false, seed)
		if err != nil {
			return nil, err
		}
		return core.NewStaticController(cfg)
	case "supervised":
		inner, _, err := experiments.DesignedMIMO(false, seed)
		if err != nil {
			return nil, err
		}
		return supervisor.New(inner, supervisor.Options{}), nil
	default:
		return nil, fmt.Errorf("unknown architecture %q", arch)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
