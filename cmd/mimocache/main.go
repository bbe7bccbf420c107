// Command mimocache calibrates miss curves: it generates a synthetic
// address trace with the given locality profile, measures its miss rate
// in the modeled L1/L2 geometries at every enabled-way count (single
// pass over LRU stack distances, exact against a replay through a
// set-associative cache), and fits the power-law miss curve the
// epoch-level processor model uses. This is the calibration path behind
// the per-workload miss curves in internal/workloads.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "trace generator seed")
		accesses    = flag.Int("accesses", 200000, "trace length in accesses")
		warmup      = flag.Int("warmup", 20000, "accesses used to warm the cache before measuring")
		wsKB        = flag.Int("ws", 64, "hot working-set size in KiB")
		cold        = flag.Float64("cold", 0.02, "fraction of cold (streaming) accesses")
		stride      = flag.Float64("stride", 0.3, "fraction of strided accesses")
		zipf        = flag.Float64("zipf", 1.2, "Zipf exponent of hot-line reuse (>1)")
		metricsAddr = flag.String("metrics-addr", "", "serve live diagnostics (/metrics, /debug/pprof) on this address (e.g. :8090); empty disables")
	)
	flag.Parse()

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterGoMetrics(reg)
		srv, err := telemetry.StartServer(*metricsAddr, telemetry.ServerOptions{Registry: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "diagnostics on http://%s/ (metrics, debug/pprof)\n", srv.Addr())
	}

	spec := sim.DefaultTraceSpec()
	spec.WorkingSetBytes = uint64(*wsKB) << 10
	spec.ColdFraction = *cold
	spec.StrideFraction = *stride
	spec.ZipfS = *zipf
	gen := sim.NewTraceGen(spec, rand.New(rand.NewSource(*seed)))
	trace := gen.Generate(*accesses)

	for _, level := range []struct {
		name string
		geom sim.CacheGeometry
	}{
		{"L1D (32 KiB, 4-way)", sim.CacheGeometry{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64}},
		{"L2 (256 KiB, 8-way)", sim.CacheGeometry{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64}},
	} {
		pts, err := sim.CalibrateMissCurve(level.geom, trace, *warmup)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m1, alpha, floor := sim.FitPowerLawMissCurve(pts)
		fmt.Printf("%s  (working set %d KiB)\n", level.name, *wsKB)
		fmt.Printf("  %-6s %s\n", "ways", "miss rate")
		for _, p := range pts {
			fmt.Printf("  %-6d %.4f\n", p.Ways, p.MissRate)
		}
		fmt.Printf("  power-law fit: miss(w) ≈ %.4f + (%.4f - %.4f)·w^(-%.2f)\n\n",
			floor, m1, floor, alpha)
	}
}
