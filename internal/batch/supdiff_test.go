package batch

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
)

var errApplyInject = errors.New("injected actuation failure")

// supFleetOptions returns per-loop supervisor options with short grace
// and hysteresis windows, so fault-injected runs cross fallback entry,
// the fallback dwell and hysteretic re-engagement many times within a
// few thousand epochs. Odd loops get a divergence limit tight enough
// that telemetry far from target trips the tracking-error alarm with
// no sensor fault at all.
func supFleetOptions(j int) supervisor.Options {
	o := supervisor.Options{
		GraceEpochs:        30 + 5*(j%4),
		FallbackAfter:      10,
		MaxStaleEpochs:     6,
		MinFallbackEpochs:  25,
		ReengageAfter:      12,
		ApplyFallbackAfter: 4,
	}
	if j%2 == 1 {
		o.DivergenceLimit = 0.2
		o.DivergenceAlpha = 0.1
	}
	return o
}

// TestBatchSupervisedFleetBitIdentical is the fault-injected fleet
// differential: a mixed fleet of supervised 2- and 3-input loops, each
// shadowed by a standalone twin, stepped for thousands of epochs with
// non-finite telemetry, stuck-sensor windows, apply-failure bursts,
// target changes (non-finite ones dropped) and resets. Every epoch must
// pick the same configurations; at the end Health, mode, the event
// streams and the supervisor_* instruments must match. The schedule
// must drive loops off the nominal path and back — a run that never
// falls back, re-engages, parks or unparks fails as vacuous.
func TestBatchSupervisedFleetBitIdentical(t *testing.T) {
	const (
		loops  = 8
		epochs = 3000
	)
	rng := rand.New(rand.NewSource(99))
	p := newPairing(t, loops, func(j int) (*supervisor.Supervised, *supervisor.Supervised) {
		o := supFleetOptions(j)
		f := supervisor.New(designedController(t, j%2 == 0), o)
		a := supervisor.New(designedController(t, j%2 == 0), o)
		ips, pow := 0.8+0.3*float64(j), 3+float64(j)
		f.SetTargets(ips, pow)
		a.SetTargets(ips, pow)
		return f, a
	})
	burstLeft := make([]int, loops)
	wasParked := make([]bool, loops)
	parks, unparks := 0, 0
	for epoch := 0; epoch < epochs; epoch++ {
		if rng.Intn(150) == 0 {
			burstLeft[rng.Intn(loops)] = 6
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
			j := rng.Intn(loops)
			p.fleet.loops[j].Reset()
			p.alone.loops[j].Reset()
		}
		p.step(t, epoch, func(j int) sim.Telemetry {
			tel := randTelemetry(rng)
			// Deterministic stuck-sensor windows force dead-channel
			// fallbacks on every loop.
			if start := 500 + 130*j; epoch >= start && epoch < start+30 {
				tel.IPS = math.NaN()
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
	fallbacks, reengagements := 0, 0
	for j := 0; j < loops; j++ {
		h := p.e.Health(j)
		fallbacks += h.Fallbacks
		reengagements += h.Reengagements
	}
	if fallbacks == 0 || reengagements == 0 || parks == 0 || unparks == 0 {
		t.Fatalf("the run never left the nominal path and came back: fallbacks=%d reengagements=%d parks=%d unparks=%d",
			fallbacks, reengagements, parks, unparks)
	}
	p.requireSame(t)
}

// TestBatchSupervisedEvictReadmitBitIdentical walks one loop off the
// nominal path and back: a stuck sensor forces a fallback (Parked),
// recovery re-engages it (not Parked), an actuation failure parks it
// again until a successful apply — and at each boundary and after a
// long nominal stretch it matches its standalone twin.
func TestBatchSupervisedEvictReadmitBitIdentical(t *testing.T) {
	o := supervisor.Options{
		GraceEpochs:       20,
		FallbackAfter:     8,
		MaxStaleEpochs:    5,
		MinFallbackEpochs: 15,
		ReengageAfter:     10,
	}
	p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
		f, a := supervisor.New(designedController(t, true), o), supervisor.New(designedController(t, true), o)
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
	run(130)
	if !p.e.Parked(0) || p.fleet.loops[0].Mode() != supervisor.ModeFallback {
		t.Fatalf("stuck sensor: parked=%v mode=%v, want parked in fallback", p.e.Parked(0), p.fleet.loops[0].Mode())
	}
	nanIPS = false
	for ; epoch < 400 && p.e.Parked(0); epoch++ {
		p.step(t, epoch, tel, applyErr)
	}
	if p.e.Parked(0) || p.fleet.loops[0].Mode() != supervisor.ModeEngaged {
		t.Fatalf("recovery: parked=%v mode=%v, want unparked and engaged", p.e.Parked(0), p.fleet.loops[0].Mode())
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
	if h := p.e.Health(0); h.Fallbacks == 0 || h.Reengagements == 0 || h.ApplyFailures == 0 {
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
		o := supervisor.Options{GraceEpochs: 15, FallbackAfter: 6, MaxStaleEpochs: 4, MinFallbackEpochs: 10, ReengageAfter: 8}
		f, a := supervisor.New(designedController(t, true), o), supervisor.New(designedController(t, true), o)
		f.SetTargets(2, 6)
		a.SetTargets(2, 6)
		return f, a
	})
	rng := rand.New(rand.NewSource(77))
	sawParked := false
	for epoch := 0; epoch < 900; epoch++ {
		p.step(t, epoch, func(int) sim.Telemetry {
			tel := sim.Telemetry{IPS: 1.7 + rng.Float64()*0.6, PowerW: 5.5 + rng.Float64()}
			if epoch >= 300 && epoch < 330 {
				tel.IPS = math.Inf(1)
			}
			return tel
		}, nil)
		sawParked = sawParked || p.e.Parked(0)
	}
	if !sawParked || p.e.Parked(0) {
		t.Fatalf("fault window: parked during run %v, parked at end %v; want true, false", sawParked, p.e.Parked(0))
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
		o := supervisor.Options{GraceEpochs: 15, FallbackAfter: 6, MaxStaleEpochs: 4, MinFallbackEpochs: 10, ReengageAfter: 8}
		f, a := supervisor.New(designedController(t, false), o), supervisor.New(designedController(t, false), o)
		f.SetTargets(2, 6)
		a.SetTargets(2, 6)
		return f, a
	})
	rng := rand.New(rand.NewSource(5))
	const epochs = 500
	for epoch := 0; epoch < epochs; epoch++ {
		p.step(t, epoch, func(int) sim.Telemetry {
			tel := sim.Telemetry{IPS: 1.7 + rng.Float64()*0.6, PowerW: 5.5 + rng.Float64()}
			if epoch >= 200 && epoch < 230 {
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
		`supervisor_epochs_total{loop="loop-0"} 500`,
		`supervisor_mode_transitions_total{loop="loop-0",to="fallback"} 1`,
		`supervisor_mode_transitions_total{loop="loop-0",to="engaged"} 1`,
	} {
		if !strings.Contains(got, series) {
			t.Fatalf("series %s missing from the fleet loop's exposition:\n%s", series, got)
		}
	}
}

// FuzzSupervisedBatchVsScalar drives one fleet loop and its standalone
// twin through a fuzz-chosen schedule of telemetry (raw-bit floats
// included), target changes, apply failures and resets, requiring the
// same configuration every epoch and the same Health, events and
// instruments at the end.
func FuzzSupervisedBatchVsScalar(f *testing.F) {
	f.Add([]byte{0}, int64(1))
	f.Add([]byte{5, 1, 2, 3, 4, 250, 9, 9, 9, 9, 17, 0, 0, 0, 0, 0, 0, 4, 1}, int64(42))
	f.Add(append(
		binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(math.NaN())),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))...), int64(7))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		three := seed%2 == 0
		p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
			o := supervisor.Options{
				GraceEpochs:        10,
				FallbackAfter:      5,
				MaxStaleEpochs:     3,
				MinFallbackEpochs:  8,
				ReengageAfter:      4,
				ApplyFallbackAfter: 3,
				DivergenceLimit:    0.3,
			}
			f, a := supervisor.New(designedController(t, three), o), supervisor.New(designedController(t, three), o)
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
		for off, epoch := 0, 0; off < len(data) && epoch < 256; off, epoch = off+17, epoch+1 {
			op := data[off]
			a, b := f64(off+1), f64(off+9)
			var tel sim.Telemetry
			var aerr error
			switch op % 8 {
			case 0:
				tel.IPS, tel.PowerW = math.NaN(), rng.Float64()*20
			case 1:
				tel.IPS, tel.PowerW = rng.Float64()*4, math.Inf(1)
			case 2:
				tel.IPS, tel.PowerW = a, b // raw fuzz bit patterns
			case 3:
				p.fleet.loops[0].SetTargets(a, b)
				p.alone.loops[0].SetTargets(a, b)
				tel.IPS, tel.PowerW = rng.Float64()*4, rng.Float64()*10
			case 4:
				aerr = errApplyInject
				tel.IPS, tel.PowerW = rng.Float64()*4, rng.Float64()*10
			case 5:
				p.fleet.loops[0].Reset()
				p.alone.loops[0].Reset()
				tel.IPS, tel.PowerW = rng.Float64()*4, rng.Float64()*10
			case 6:
				tel.IPS, tel.PowerW = b, a
			default:
				tel.IPS, tel.PowerW = rng.Float64()*5, rng.Float64()*25
			}
			p.step(t, epoch, func(int) sim.Telemetry { return tel }, func(int) error { return aerr })
		}
		p.requireSame(t)
	})
}
