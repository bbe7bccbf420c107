package sim_test

// Micro-benchmarks of the plant: one analytic epoch on namd, unbound
// and bound to a live telemetry registry, one epoch of a Lockstep bank
// of namd plants, and one access of the trace-driven cache model.
//
// Run with: go test ./internal/sim/ -run '^$' -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

// benchEpochs times one namd processor stepping, bound to reg.
func benchEpochs(b *testing.B, reg *telemetry.Registry) {
	w, err := workloads.ByName("namd")
	if err != nil {
		b.Fatal(err)
	}
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 1)
	if err != nil {
		b.Fatal(err)
	}
	proc.BindTelemetry(reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.Step()
	}
}

func BenchmarkProcessorEpoch(b *testing.B) { benchEpochs(b, nil) }

// BenchmarkProcessorEpochTelemetry prices the plant instruments: off
// (unbound, one nil check) and live (bound to a fresh registry: one
// counter per epoch, the timer and gauges every 64th).
func BenchmarkProcessorEpochTelemetry(b *testing.B) {
	for _, live := range []bool{false, true} {
		b.Run(map[bool]string{false: "off", true: "live"}[live], func(b *testing.B) {
			var reg *telemetry.Registry
			if live {
				reg = telemetry.NewRegistry()
			}
			benchEpochs(b, reg)
		})
	}
}

// BenchmarkLockstepEpoch times one unbound bank epoch of 1, 3, 4 and 6
// namd members held at distinct configurations, and reports it per
// member-epoch: BenchmarkProcessorEpoch is the cost of one member
// stepped alone.
func BenchmarkLockstepEpoch(b *testing.B) {
	w, err := workloads.ByName("namd")
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []sim.Config{
		sim.MidrangeConfig(), sim.BaselineConfig(),
		{FreqIdx: 15, CacheIdx: 3, ROBIdx: 7}, {FreqIdx: 0, CacheIdx: 0, ROBIdx: 0},
		{FreqIdx: 11, CacheIdx: 2, ROBIdx: 5}, {FreqIdx: 3, CacheIdx: 1, ROBIdx: 1},
	}
	for _, n := range []int{1, 3, 4, 6} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			bank, err := sim.NewLockstep(w, sim.DefaultProcessorOptions(), 1, n)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := bank.Apply(i, cfgs[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bank.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/member-epoch")
		})
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, err := sim.NewCache(sim.CacheGeometry{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64})
	if err != nil {
		b.Fatal(err)
	}
	gen := sim.NewTraceGen(sim.DefaultTraceSpec(), rand.New(rand.NewSource(1)))
	addrs := gen.Generate(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}
