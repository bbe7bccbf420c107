package sim_test

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

// member scripts one bank member's controller: what it applies before
// epoch k, given the telemetry its plant reported for epoch k-1 (the
// zero Telemetry before the first epoch); ok false applies nothing.
type member func(k int, last sim.Telemetry) (cfg sim.Config, ok bool)

// held applies cfg once, before the first epoch.
func held(cfg sim.Config) member {
	return func(k int, _ sim.Telemetry) (sim.Config, bool) { return cfg, k == 0 }
}

// idle never applies: the member runs the midrange configuration.
func idle(int, sim.Telemetry) (sim.Config, bool) { return sim.Config{}, false }

// walker applies a new configuration every epoch, starting at offset
// along the walk that visits all 512; with invalidEvery > 0, every
// invalidEvery-th request is out of range in one knob instead.
func walker(offset, invalidEvery int) member {
	cfgs := allConfigs()
	bad := []sim.Config{
		{FreqIdx: len(sim.FreqSettingsGHz)},
		{CacheIdx: -1},
		{ROBIdx: len(sim.ROBSettings)},
	}
	return func(k int, _ sim.Telemetry) (sim.Config, bool) {
		if invalidEvery > 0 && k%invalidEvery == invalidEvery-1 {
			return bad[k/invalidEvery%len(bad)], true
		}
		return configWalk(cfgs, offset+k), true
	}
}

// feedback closes a loop: every other epoch it picks the next
// configuration from the bit pattern of the last measured outputs, so a
// member whose telemetry drifted from its processor's would drift in
// its decisions too.
func feedback() member {
	cfgs := allConfigs()
	return func(k int, last sim.Telemetry) (sim.Config, bool) {
		h := math.Float64bits(last.IPS) ^ math.Float64bits(last.PowerW)>>7 ^ uint64(k)
		return cfgs[h%uint64(len(cfgs))], k%2 == 0
	}
}

// sameBits reports whether a and b are equal bit for bit. Telemetry is
// all 8-byte words, so its memory is its fields' bit patterns.
func sameBits(a, b *sim.Telemetry) bool {
	const n = unsafe.Sizeof(sim.Telemetry{})
	return *(*[n]byte)(unsafe.Pointer(a)) == *(*[n]byte)(unsafe.Pointer(b))
}

// checkLockstep steps a bank of len(members) plants of (w, opts, seed)
// beside one Processor per member, each driven by its member script,
// for epochs epochs, clearing the totals of both before epoch resetAt.
// Every Apply must agree on validity, every Telemetry field of every
// epoch and every member's totals must match by bit pattern. From epoch
// bindAt on (never when negative), the bank and the processors are
// bound to registries of their own, which must then agree on every
// sample but the step-time histogram's wall-clock values.
func checkLockstep(t testing.TB, w sim.Workload, opts sim.ProcessorOptions, seed int64, members []member, epochs, resetAt, bindAt int) {
	t.Helper()
	bank, err := sim.NewLockstep(w, opts, seed, len(members))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*sim.Processor, len(members))
	for i := range procs {
		if procs[i], err = sim.NewProcessor(w, opts, seed); err != nil {
			t.Fatal(err)
		}
	}
	var bankReg, procReg *telemetry.Registry
	last := make([]sim.Telemetry, len(members))
	for k := 0; k < epochs; k++ {
		if k == bindAt {
			bankReg, procReg = telemetry.NewRegistry(), telemetry.NewRegistry()
			bank.BindTelemetry(bankReg)
			for _, p := range procs {
				p.BindTelemetry(procReg)
			}
		}
		if k == resetAt {
			bank.ResetTotals()
			for _, p := range procs {
				p.ResetTotals()
			}
		}
		for i, m := range members {
			cfg, ok := m(k, last[i])
			if !ok {
				continue
			}
			errB, errP := bank.Apply(i, cfg), procs[i].Apply(cfg)
			if (errB == nil) != (errP == nil) {
				t.Fatalf("%s epoch %d member %d: bank Apply(%v) = %v, processor %v", w.Name(), k, i, cfg, errB, errP)
			}
		}
		tels := bank.Step()
		if len(tels) != len(members) {
			t.Fatalf("bank stepped %d members, want %d", len(tels), len(members))
		}
		for i, p := range procs {
			want := p.Step()
			if !sameBits(&tels[i], &want) {
				t.Fatalf("%s seed %d (deterministic %v) epoch %d member %d: %s",
					w.Name(), seed, opts.Deterministic, k, i, sim.BitDiff(tels[i], want))
			}
			last[i] = tels[i]
		}
	}
	for i, p := range procs {
		e, n, s := p.Totals()
		if d := sim.BitDiff(bank.Totals(i), sim.Totals{EnergyJ: e, Instructions: n, Seconds: s}); d != "" {
			t.Fatalf("%s member %d totals: %s", w.Name(), i, d)
		}
	}
	if bankReg != nil {
		got, want := plantSamples(t, bankReg), plantSamples(t, procReg)
		if got != want {
			t.Fatalf("%s: the bound bank's registry\n%s\nthe processors'\n%s", w.Name(), got, want)
		}
	}
}

// plantSamples renders reg's samples without the step-time histogram's
// buckets, sum and quantiles, which are wall-clock times.
func plantSamples(t testing.TB, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "sim_epoch_step_seconds") && !strings.HasPrefix(line, "sim_epoch_step_seconds_count") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// lockstepMembers is the bank every profile runs: two held members, an
// idle one, two walkers (one with invalid requests) and a feedback loop.
func lockstepMembers() []member {
	return []member{
		held(sim.BaselineConfig()),
		held(sim.Config{FreqIdx: 15, CacheIdx: 3, ROBIdx: 7}),
		idle,
		walker(0, 0),
		walker(101, 7),
		feedback(),
	}
}

// TestLockstepMatchesProcessors runs every profile for one full phase
// cycle plus an epoch, so every phase boundary is crossed and the cycle
// re-entered, under default noise and Deterministic, and compares the
// bank with one processor per member.
func TestLockstepMatchesProcessors(t *testing.T) {
	for name, opts := range sweepOptions() {
		t.Run(name, func(t *testing.T) {
			for wi, prof := range workloads.All() {
				cycle := 0
				for _, ph := range prof.Phases {
					cycle += ph.DurationEpochs
				}
				checkLockstep(t, prof, opts, 11+int64(wi), lockstepMembers(), cycle+1, cycle/2, -1)
			}
		})
	}
}

// TestLockstepBoundCountsAsProcessors: a bank bound to a registry moves
// every plant series as its members, each a processor bound to a
// registry of its own, would, the sampled step-time histogram's count
// included; and a bank needs a workload and a member.
func TestLockstepBoundCountsAsProcessors(t *testing.T) {
	sjeng, err := workloads.ByName("sjeng")
	if err != nil {
		t.Fatal(err)
	}
	// Bound from the start, and bound after 150 epochs: the energy and
	// instruction counters count from the binding on.
	checkLockstep(t, sjeng, sim.DefaultProcessorOptions(), 5, lockstepMembers(), 700, 300, 0)
	checkLockstep(t, sjeng, sim.DefaultProcessorOptions(), 5, lockstepMembers(), 700, 500, 150)
	checkLockstep(t, sjeng, sim.DefaultProcessorOptions(), 6, lockstepMembers()[4:5], 200, 100, 0)

	if _, err := sim.NewLockstep(nil, sim.DefaultProcessorOptions(), 5, 2); err == nil {
		t.Error("a bank without a workload was built")
	}
	if _, err := sim.NewLockstep(sjeng, sim.DefaultProcessorOptions(), 5, 0); err == nil {
		t.Error("a bank of no members was built")
	}
}

// FuzzLockstepMatchesProcessors takes the seed, the workload, the
// members (three bytes each, up to 8: a kind — held, idle, walker,
// walker with invalid requests, feedback — and a configuration or walk
// offset; no bytes run one idle member), the run length, the reset
// epoch and the noise switches from the fuzzer, and compares the bank
// with one processor per member.
func FuzzLockstepMatchesProcessors(f *testing.F) {
	f.Add(int64(7), uint8(0), []byte{0, 0, 42, 2, 1, 3, 3, 0, 9, 4, 0, 0}, uint16(300), uint16(20), false, false)
	f.Add(int64(1), uint8(3), []byte{1, 0, 0}, uint16(64), uint16(0), true, false)
	f.Add(int64(2016), uint8(5), []byte{3, 1, 200, 0, 1, 9}, uint16(50), uint16(49), false, true)
	f.Add(int64(-3), uint8(200), []byte{}, uint16(10), uint16(3), false, false)
	// sjeng's first phase ends at epoch 4000.
	all := workloads.All()
	for i, p := range all {
		if p.Name() == "sjeng" {
			f.Add(int64(401), uint8(i), []byte{2, 0, 17, 4, 1, 130, 0, 0, 5}, uint16(4100), uint16(3990), false, false)
		}
	}
	cfgs := allConfigs()
	f.Fuzz(func(t *testing.T, seed int64, wl uint8, picks []byte, epochs, resetAt uint16, deterministic, quietAR bool) {
		w := all[int(wl)%len(all)]
		opts := sim.DefaultProcessorOptions()
		opts.Deterministic = deterministic
		if quietAR {
			opts.PhaseNoiseStd = 0
		}
		var members []member
		for i := 0; i+2 < len(picks) && len(members) < 8; i += 3 {
			pick := int(picks[i+1])<<8 | int(picks[i+2])
			switch picks[i] % 5 {
			case 0:
				members = append(members, held(cfgs[pick%len(cfgs)]))
			case 1:
				members = append(members, idle)
			case 2:
				members = append(members, walker(pick, 0))
			case 3:
				members = append(members, walker(pick, 2+pick%9))
			default:
				members = append(members, feedback())
			}
		}
		if len(members) == 0 {
			members = append(members, idle)
		}
		n := int(epochs % 8192)
		checkLockstep(t, w, opts, seed, members, n, int(resetAt)%(n+1), -1)
	})
}
