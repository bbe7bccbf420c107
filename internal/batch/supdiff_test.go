package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
)

var errApplyInject = errors.New("injected actuation failure")

// The supervisor's windows, as the differentials' fault schedules
// must cover them: a channel coasting past 50 epochs is dead, 50 sick
// epochs (or 6 failed applies) fall back, and re-engagement needs 150
// consecutive healthy epochs after at least 100 in fallback. Alarms
// other than a dead channel wait out a 400-epoch grace period.
const (
	supDeadFallback = 50 + 50 + 1 // fault epochs until a dead-channel fallback
	supReengage     = 150         // healthy epochs until re-engagement
	supGrace        = 400
)

// nearTarget draws plausible telemetry within ±20% of the loop's
// targets: the tracking-error alarm never trips on it.
func nearTarget(rng *rand.Rand, s *supervisor.Supervised) sim.Telemetry {
	ips, pow := s.Targets()
	tel := sim.Telemetry{IPS: ips * (0.8 + 0.4*rng.Float64()), PowerW: pow * (0.8 + 0.4*rng.Float64())}
	tel.TrueIPS, tel.TruePowerW = tel.IPS, tel.PowerW
	tel.L1MPKI, tel.L2MPKI = rng.Float64()*20, rng.Float64()*5
	return tel
}

// TestBatchSupervisedFleetBitIdentical is the fault-injected fleet
// differential: a mixed fleet of supervised 2- and 3-input loops, each
// shadowed by a standalone twin, stepped for thousands of epochs with
// non-finite telemetry, dead-sensor and off-target windows,
// apply-failure bursts, target changes (non-finite ones dropped) and
// resets. The loops are staggered by their fault windows: loop j's
// sensor dies at 500+100j for long enough to fall back, and a quiet
// stretch follows in which it re-engages; odd loops then read far off
// target until the tracking-error alarm drops them again. Every epoch
// must pick the same configurations; at the end Health, mode, the
// event streams and the supervisor_* instruments must match. Every
// loop must cross fallback and re-engagement, and the run must park and
// unpark loops — a run that does not fails as vacuous.
func TestBatchSupervisedFleetBitIdentical(t *testing.T) {
	const (
		loops  = 8
		epochs = 4000
		quiet  = supDeadFallback + 2*supReengage // dead window plus room to re-engage
	)
	rng := rand.New(rand.NewSource(99))
	p := newPairing(t, loops, func(j int) (*supervisor.Supervised, *supervisor.Supervised) {
		f := supervisor.New(designedController(t, j%2 == 0), supervisor.Options{})
		a := supervisor.New(designedController(t, j%2 == 0), supervisor.Options{})
		ips, pow := 0.8+0.3*float64(j), 3+float64(j)
		f.SetTargets(ips, pow)
		a.SetTargets(ips, pow)
		return f, a
	})
	deadFrom := func(j int) int { return 500 + 100*j }
	offFrom := func(j int) int { return deadFrom(j) + quiet + supGrace }
	burstLeft := make([]int, loops)
	wasParked := make([]bool, loops)
	parks, unparks := 0, 0
	for epoch := 0; epoch < epochs; epoch++ {
		inQuiet := func(j int) bool { return epoch >= deadFrom(j) && epoch < deadFrom(j)+quiet }
		if rng.Intn(150) == 0 {
			if j := rng.Intn(loops); !inQuiet(j) {
				burstLeft[j] = 6
			}
		}
		if rng.Intn(300) == 0 {
			j := rng.Intn(loops)
			ips, pow := 0.5+rng.Float64()*3, 2+rng.Float64()*12
			if rng.Intn(6) == 0 {
				ips = math.NaN() // dropped by both
			}
			p.fleet.loops[j].SetTargets(ips, pow)
			p.alone.loops[j].SetTargets(ips, pow)
		}
		if rng.Intn(900) == 0 {
			if j := rng.Intn(loops); !inQuiet(j) {
				p.fleet.loops[j].Reset()
				p.alone.loops[j].Reset()
			}
		}
		p.step(t, epoch, func(j int) sim.Telemetry {
			if !inQuiet(j) && rng.Intn(100) == 0 {
				return randTelemetry(rng) // mostly a non-finite or extreme glitch
			}
			tel := nearTarget(rng, p.alone.loops[j])
			switch {
			case epoch >= deadFrom(j) && epoch < deadFrom(j)+supDeadFallback:
				tel.IPS = math.NaN()
			case j%2 == 1 && epoch >= offFrom(j) && epoch < offFrom(j)+supGrace:
				tel.IPS *= 2 // plausible, but far off target
			}
			return tel
		}, func(j int) error {
			if burstLeft[j] > 0 {
				burstLeft[j]--
				return errApplyInject
			}
			return nil
		})
		for j := range wasParked {
			if now := p.e.Parked(j); now != wasParked[j] {
				if now {
					parks++
				} else {
					unparks++
				}
				wasParked[j] = now
			}
		}
	}
	var dead, divergence, applyFailures int
	for j := 0; j < loops; j++ {
		h := p.e.Health(j)
		if h.Fallbacks == 0 || h.Reengagements == 0 {
			t.Fatalf("loop %d never left the nominal path and came back: %+v", j, h)
		}
		dead += h.DeadSensorEpochs
		divergence += h.DivergenceAlarms
		applyFailures += h.ApplyFailures
	}
	if parks == 0 || unparks == 0 || dead == 0 || divergence == 0 || applyFailures == 0 {
		t.Fatalf("a fault class never reached the loops: parks=%d unparks=%d dead-sensor epochs=%d divergence alarms=%d apply failures=%d",
			parks, unparks, dead, divergence, applyFailures)
	}
	p.requireSame(t)
}

// TestBatchSupervisedEvictReadmitBitIdentical walks one loop off the
// nominal path and back: a stuck sensor forces a fallback (Parked),
// recovery re-engages it (not Parked), an actuation failure parks it
// again until a successful apply — and at each boundary and after a
// long nominal stretch it matches its standalone twin.
func TestBatchSupervisedEvictReadmitBitIdentical(t *testing.T) {
	p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
		f, a := supervisor.New(designedController(t, true), supervisor.Options{}), supervisor.New(designedController(t, true), supervisor.Options{})
		f.SetTargets(2, 6)
		a.SetTargets(2, 6)
		return f, a
	})
	rng := rand.New(rand.NewSource(7))
	nanIPS, failApply := false, false
	tel := func(int) sim.Telemetry {
		t := sim.Telemetry{IPS: 1.6 + rng.Float64()*0.8, PowerW: 5 + rng.Float64()*2}
		if nanIPS {
			t.IPS = math.NaN()
		}
		return t
	}
	applyErr := func(int) error {
		if failApply {
			return errApplyInject
		}
		return nil
	}
	epoch := 0
	run := func(until int) {
		for ; epoch < until; epoch++ {
			p.step(t, epoch, tel, applyErr)
		}
	}
	run(100)
	if p.e.Parked(0) {
		t.Fatal("loop parked on healthy telemetry")
	}
	nanIPS = true
	run(epoch + supDeadFallback)
	if !p.e.Parked(0) || supMode(p.fleet.loops[0]) != supervisor.ModeFallback {
		t.Fatalf("stuck sensor: parked=%v mode=%v, want parked in fallback", p.e.Parked(0), supMode(p.fleet.loops[0]))
	}
	nanIPS = false
	for until := epoch + 2*supReengage; epoch < until && p.e.Parked(0); epoch++ {
		p.step(t, epoch, tel, applyErr)
	}
	if p.e.Parked(0) || supMode(p.fleet.loops[0]) != supervisor.ModeEngaged {
		t.Fatalf("recovery: parked=%v mode=%v, want unparked and engaged", p.e.Parked(0), supMode(p.fleet.loops[0]))
	}
	failApply = true
	run(epoch + 1)
	if !p.e.Parked(0) {
		t.Fatal("a failed apply did not park the loop")
	}
	failApply = false
	run(epoch + 1)
	if p.e.Parked(0) {
		t.Fatal("a successful apply did not unpark the loop")
	}
	run(epoch + 300)
	if h := p.e.Health(0); h.Fallbacks != 1 || h.Reengagements != 1 || h.ApplyFailures != 1 {
		t.Fatalf("off-nominal path not exercised: %+v", h)
	}
	p.requireSame(t)
}

// TestBatchSupervisedObsParity runs one fleet loop and its standalone
// twin, each on its own fleet plane and event bus, through a nominal →
// fallback → re-engaged arc, and requires the two event streams to
// match field for field — sanitized measurements, innovation norms,
// mode and flag bits, loop ids and epochs.
func TestBatchSupervisedObsParity(t *testing.T) {
	p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
		f, a := supervisor.New(designedController(t, true), supervisor.Options{}), supervisor.New(designedController(t, true), supervisor.Options{})
		f.SetTargets(2, 6)
		a.SetTargets(2, 6)
		return f, a
	})
	rng := rand.New(rand.NewSource(77))
	sawParked := false
	const faultFrom = 300
	for epoch := 0; epoch < faultFrom+supDeadFallback+2*supReengage; epoch++ {
		p.step(t, epoch, func(int) sim.Telemetry {
			tel := sim.Telemetry{IPS: 1.7 + rng.Float64()*0.6, PowerW: 5.5 + rng.Float64()}
			if epoch >= faultFrom && epoch < faultFrom+supDeadFallback {
				tel.IPS = math.Inf(1)
			}
			return tel
		}, nil)
		sawParked = sawParked || p.e.Parked(0)
	}
	if h := p.e.Health(0); !sawParked || p.e.Parked(0) || h.Fallbacks != 1 || h.Reengagements != 1 {
		t.Fatalf("fault window: parked during run %v, parked at end %v, health %+v; want one fallback and re-engagement", sawParked, p.e.Parked(0), h)
	}
	requireSameEvents(t, p.fleet.events(t), p.alone.events(t))
}

// TestBatchInstrumentsMatchStandalone binds a fleet loop and its
// standalone twin to registry scopes of their own and runs them across
// a fault window that causes a fallback and a re-engagement: every
// supervisor_* series must read the same, and the epoch counter must
// count every epoch.
func TestBatchInstrumentsMatchStandalone(t *testing.T) {
	p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
		f, a := supervisor.New(designedController(t, false), supervisor.Options{}), supervisor.New(designedController(t, false), supervisor.Options{})
		f.SetTargets(2, 6)
		a.SetTargets(2, 6)
		return f, a
	})
	rng := rand.New(rand.NewSource(5))
	const (
		faultFrom = 200
		epochs    = faultFrom + supDeadFallback + 2*supReengage
	)
	for epoch := 0; epoch < epochs; epoch++ {
		p.step(t, epoch, func(int) sim.Telemetry {
			tel := sim.Telemetry{IPS: 1.7 + rng.Float64()*0.6, PowerW: 5.5 + rng.Float64()}
			if epoch >= faultFrom && epoch < faultFrom+supDeadFallback {
				tel.PowerW = 0 // a dead power meter
			}
			return tel
		}, nil)
	}
	if h := p.e.Health(0); h.Fallbacks == 0 || h.Reengagements == 0 {
		t.Fatalf("fault window did not fall back and re-engage: %+v", h)
	}
	got := strings.Join(p.fleet.exposition(t, "supervisor_"), "\n")
	want := strings.Join(p.alone.exposition(t, "supervisor_"), "\n")
	if got != want {
		t.Fatalf("supervisor_* exposition differs:\nfleet:\n%s\nstandalone:\n%s", got, want)
	}
	for _, series := range []string{
		fmt.Sprintf(`supervisor_epochs_total{loop="loop-0"} %d`, epochs),
		`supervisor_mode_transitions_total{loop="loop-0",to="fallback"} 1`,
		`supervisor_mode_transitions_total{loop="loop-0",to="engaged"} 1`,
	} {
		if !strings.Contains(got, series) {
			t.Fatalf("series %s missing from the fleet loop's exposition:\n%s", series, got)
		}
	}
}

// supFuzzEpochs caps a FuzzSupervisedBatchVsScalar run: long enough
// for an op held from the start to outlast the 400-epoch grace period
// and the fallback and re-engagement windows after it.
const supFuzzEpochs = 2048

// supFuzzRecord encodes one FuzzSupervisedBatchVsScalar record: op
// (its kind in the low 3 bits, its hold in the rest) and the two
// float64 operands.
func supFuzzRecord(kind, hold byte, a, b float64) []byte {
	out := []byte{kind | hold<<3}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(a))
	return binary.LittleEndian.AppendUint64(out, math.Float64bits(b))
}

// supFuzzSeeds are FuzzSupervisedBatchVsScalar's seeds, named for the
// supervisor path each must reach (TestSupFuzzSeedsReachEveryPath).
var supFuzzSeeds = []struct {
	name string
	data []byte
	seed int64
}{
	{"one-epoch", []byte{0}, 1},
	{"mixed", []byte{5, 1, 2, 3, 4, 250, 9, 9, 9, 9, 17, 0, 0, 0, 0, 0, 0, 4, 1}, 42},
	{"raw-non-finite", append(
		binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(math.NaN())),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))...), 7},
	// A dead IPS sensor for 249 epochs, then 2·249 healthy ones.
	{"dead-sensor-reengage", bytes.Join([][]byte{
		supFuzzRecord(0, 31, 0, 0), supFuzzRecord(7, 31, 0, 0), supFuzzRecord(7, 31, 0, 0)}, nil), 2},
	// Nine failed applies in a row.
	{"apply-failures", supFuzzRecord(4, 1, 0, 0), 3},
	// Plausible readings far above the targets, past the grace period.
	{"divergence", bytes.Join([][]byte{
		supFuzzRecord(2, 31, 3.5, 10), supFuzzRecord(2, 31, 3.5, 10)}, nil), 4},
	// IPS alternating far either side of target, past the grace period.
	{"innovation", bytes.Join([][]byte{
		supFuzzRecord(6, 31, 0.6, 3.4), supFuzzRecord(6, 31, 0.6, 3.4)}, nil), 5},
}

// supFuzzRun steps one fleet loop and its standalone twin through the
// schedule data decodes, and returns their pairing. Each 17-byte record
// is an op byte and two float64 bit patterns a, b; the op's low 3 bits
// pick what it does, and it holds for 1+8·(op>>3) epochs: 0 a NaN IPS
// sensor, 1 an infinite power reading, 2 raw (a, b) telemetry, 3 a
// target change to (a, b), 4 a failed apply, 5 a reset, 6 IPS
// alternating between a and b, 7 telemetry near the targets. Target
// changes and resets act on the record's first epoch.
func supFuzzRun(t *testing.T, data []byte, seed int64) *pairing {
	three := seed%2 == 0
	p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
		f, a := supervisor.New(designedController(t, three), supervisor.Options{}), supervisor.New(designedController(t, three), supervisor.Options{})
		f.SetTargets(2, 6)
		a.SetTargets(2, 6)
		return f, a
	})
	rng := rand.New(rand.NewSource(seed))
	f64 := func(off int) float64 {
		var b [8]byte
		copy(b[:], data[min(off, len(data)):min(off+8, len(data))])
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	epoch := 0
	for off := 0; off < len(data) && epoch < supFuzzEpochs; off += 17 {
		op := data[off]
		a, b := f64(off+1), f64(off+9)
		for k := 0; k < 1+8*int(op>>3) && epoch < supFuzzEpochs; k, epoch = k+1, epoch+1 {
			tel := nearTarget(rng, p.alone.loops[0])
			var aerr error
			switch op % 8 {
			case 0:
				tel.IPS, tel.PowerW = math.NaN(), rng.Float64()*20
			case 1:
				tel.IPS, tel.PowerW = rng.Float64()*4, math.Inf(1)
			case 2:
				tel.IPS, tel.PowerW = a, b // raw fuzz bit patterns
			case 3:
				if k == 0 {
					p.fleet.loops[0].SetTargets(a, b)
					p.alone.loops[0].SetTargets(a, b)
				}
			case 4:
				aerr = errApplyInject
			case 5:
				if k == 0 {
					p.fleet.loops[0].Reset()
					p.alone.loops[0].Reset()
				}
			case 6:
				tel.IPS = a
				if k%2 == 1 {
					tel.IPS = b
				}
			}
			p.step(t, epoch, func(int) sim.Telemetry { return tel }, func(int) error { return aerr })
		}
	}
	return p
}

// FuzzSupervisedBatchVsScalar drives one fleet loop and its standalone
// twin through a fuzz-chosen schedule of telemetry (raw-bit floats
// included), target changes, apply failures and resets, requiring the
// same configuration every epoch and the same Health, events and
// instruments at the end.
func FuzzSupervisedBatchVsScalar(f *testing.F) {
	for _, s := range supFuzzSeeds {
		f.Add(s.data, s.seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		supFuzzRun(t, data, seed).requireSame(t)
	})
}

// TestSupFuzzSeedsReachEveryPath: the fuzzer's seeds reach every
// supervisor path the shipped windows guard — a dead-sensor, an
// apply-failure, a divergence and an innovation fallback, and a
// re-engagement — so the short CI fuzz smoke starts from all of them.
func TestSupFuzzSeedsReachEveryPath(t *testing.T) {
	reached := func(h supervisor.Health) map[string]bool {
		return map[string]bool{
			"dead-sensor":    h.Fallbacks > 0 && h.DeadSensorEpochs > 0,
			"apply-failures": h.Fallbacks > 0 && h.ApplyFailures >= 6,
			"divergence":     h.Fallbacks > 0 && h.DivergenceAlarms > 0,
			"innovation":     h.Fallbacks > 0 && h.InnovationAlarms > 0,
			"reengage":       h.Reengagements > 0,
		}
	}
	for _, s := range supFuzzSeeds {
		var want []string
		for _, path := range []string{"dead-sensor", "apply-failures", "divergence", "innovation", "reengage"} {
			if strings.Contains(s.name, path) {
				want = append(want, path)
			}
		}
		if len(want) == 0 {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			p := supFuzzRun(t, s.data, s.seed)
			h := p.e.Health(0)
			got := reached(h)
			for _, path := range want {
				if !got[path] {
					t.Errorf("seed does not reach %s: %+v", path, h)
				}
			}
			p.requireSame(t)
		})
	}
}
