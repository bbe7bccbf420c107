// Command mimotrace runs one closed-loop experiment and emits a
// per-epoch trace for plotting — the raw data behind Figures 6, 11, and
// 12. Each row is the one per-epoch record (obs.Event) the flight
// recorder, the event bus and the history store share, in the same
// columns: targets, measured and true outputs, the Kalman innovation
// when the controller reports one, the requested and in-effect knob
// indices, and the supervisor mode.
//
// The run keeps one flight ring and every row is read from it. The
// supervised runtime writes its own record of each epoch, with its
// flags and innovation norm; for every other architecture the harness
// writes the record with core.FillEvent, which adds what only a MIMO
// controller knows (the innovation, the continuous request, the excess)
// and leaves NaN for what the loop cannot see.
//
// -format selects CSV (default) or JSONL, -every subsamples, and
// -metrics-addr additionally serves live diagnostics (/metrics,
// /healthz, /trace with the ring's records, /debug/pprof) while
// the run is in flight. The run is registered as the one loop of an
// obs.Fleet, which serves /slo (watch with cmd/mimostat) and composes
// /healthz from the loop's last epoch: 503 naming the loop while it is
// in supervisor fallback, fails its model-health monitor or alerts on a
// control SLO, in that order; warns annotate a 200.
//
// With -flightrec, for every architecture, the ring's last 4096
// records are dumped to the given path on SIGQUIT, on supervisor
// fallback, and at exit, and served live at /debug/flightrec when
// -metrics-addr is set; diagnose a dump with cmd/mimodoctor.
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
	"io"
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

// ringCap is the capacity of the run's flight ring: the records /trace
// serves and a -flightrec dump holds.
const ringCap = 4096

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, drives the experiment and writes its rows to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mimotrace", flag.ExitOnError)
	var (
		workload    = fs.String("workload", "namd", "application to run (SPEC CPU2006 name)")
		arch        = fs.String("arch", "mimo", "controller: mimo, mimo3, heuristic, decoupled, baseline, supervised")
		epochs      = fs.Int("epochs", 5000, "number of 50 µs control epochs")
		ips         = fs.Float64("ips", core.DefaultIPSTarget, "IPS target (BIPS)")
		power       = fs.Float64("power", core.DefaultPowerTarget, "power target (W)")
		battery     = fs.Bool("battery", false, "drive targets from the battery/QoE scheduler (Fig. 12)")
		seed        = fs.Int64("seed", experiments.DefaultSeed, "simulation seed")
		every       = fs.Int("every", 1, "emit every Nth epoch (must be >= 1)")
		format      = fs.String("format", "csv", "trace format: csv or jsonl")
		metricsAddr = fs.String("metrics-addr", "", "serve live diagnostics on this address (e.g. :8090); empty disables")
		frPath      = fs.String("flightrec", "", "dump the run's flight ring to this path (SIGQUIT, supervisor fallback, and exit); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *every < 1 {
		return fmt.Errorf("-every must be >= 1, got %d", *every)
	}
	out := bufio.NewWriter(stdout)
	var sink obs.Sink
	switch *format {
	case "csv":
		sink = obs.NewCSVSink(out, nil)
	case "jsonl":
		sink = obs.NewJSONLSink(out, nil)
	default:
		return fmt.Errorf("unknown -format %q (want csv or jsonl)", *format)
	}

	// ring is the run's one flight ring, written once per epoch by the
	// supervisor (supervised) or by core.FillEvent (the others);
	// rows, /trace and the -flightrec dump all read it. It stamps the
	// epoch from its sequence, from 1.
	ring := flightrec.New(ringCap)
	if *frPath != "" {
		ring.SetOnDump(func(reason string, r *flightrec.Recorder) {
			if err := r.WriteFile(*frPath, reason); err != nil {
				fmt.Fprintf(os.Stderr, "flightrec dump: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "flightrec dump (%s) -> %s\n", reason, *frPath)
		})
		stop := flightrec.DumpOnSignal(ring, syscall.SIGQUIT, *frPath, func(err error) {
			fmt.Fprintf(os.Stderr, "flightrec signal dump: %v\n", err)
		})
		defer stop()
	}

	// loop is the run's handle in the one-loop fleet behind /healthz,
	// and reg the registry its processor and controller report to.
	var loop *obs.Loop
	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterGoMetrics(reg)
		fleet := obs.NewFleet(obs.Options{Registry: reg})
		loop = fleet.Register(*arch + "/" + *workload)
		extra := fleet.Endpoints()
		if *frPath != "" {
			extra = append(extra, flightrecEndpoint(ring))
		}
		srv, err := telemetry.StartServer(*metricsAddr, telemetry.ServerOptions{
			Registry: reg,
			Health:   func() (bool, string) { return fleet.Healthz() },
			Extra:    append(extra, traceEndpoint(ring)),
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "diagnostics on http://%s/ (metrics, healthz, slo, trace, debug/pprof)\n", srv.Addr())
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		return err
	}
	ctrl, err := buildController(*arch, *seed)
	if err != nil {
		return err
	}
	ctrl.SetTargets(*ips, *power)
	sup, supervised := ctrl.(*supervisor.Supervised)
	if supervised {
		sup.SetFlightRecorder(ring)
	}
	ring.SetMeta(flightrec.Meta{
		Arch: *arch, Workload: *workload, Seed: *seed,
		TargetIPS: *ips, TargetPowerW: *power,
		FreqLevels: len(sim.FreqSettingsGHz), CacheLevels: len(sim.CacheSettings), ROBLevels: len(sim.ROBSettings),
	})

	var sched *core.BatteryScheduler
	if *battery {
		sched, err = core.NewBatteryScheduler(core.BatteryScheduleConfig{
			InitialIPS: *ips, InitialPower: *power, TotalEnergyJ: 1.0,
		})
		if err != nil {
			return err
		}
	}

	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), *seed)
	if err != nil {
		return err
	}
	proc.BindTelemetry(reg)
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

	row := make([]obs.Event, 1)
	var sinkErr error
	tel := proc.Step()
	for k := 0; k < *epochs; k++ {
		if sched != nil {
			if i, p, changed := sched.Step(tel); changed {
				ctrl.SetTargets(i, p)
			}
		}
		cfg := ctrl.Step(tel)
		if !supervised {
			core.FillEvent(&row[0], ctrl, cfg, &tel)
			ring.Append(&row[0])
		}
		if err := proc.Apply(cfg); err != nil {
			if !supervised {
				return err
			}
			// The supervised runtime retries failed actuations and
			// falls back when they persist; report and continue.
			sup.ObserveApply(cfg, err)
		} else if supervised {
			sup.ObserveApply(cfg, nil)
		}
		tel = proc.Step()
		ring.Last(&row[0])
		if loop != nil && !supervised {
			// A copy: Observe stamps its loop id, epoch and
			// target-change flag, and the row stays the ring's record.
			ev := row[0]
			loop.Observe(&ev)
		}
		if k%*every == 0 && sinkErr == nil {
			sinkErr = sink.WriteEvents(row)
		}
	}
	ring.RequestDump("run-complete")
	// A trace whose tail was silently dropped (full disk, closed pipe)
	// must not exit 0: the first write or flush error is fatal.
	if err := out.Flush(); sinkErr == nil {
		sinkErr = err
	}
	return sinkErr
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

// flightrecEndpoint mounts the ring's dump at /debug/flightrec.
func flightrecEndpoint(r *flightrec.Recorder) telemetry.Endpoint {
	return telemetry.Endpoint{
		Path:    "/debug/flightrec",
		Desc:    "flight recorder dump (binary; ?format=jsonl)",
		Handler: flightrec.Handler(r),
	}
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
