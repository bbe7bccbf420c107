package batch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/testkit"
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
			ips, pow := p.alone.loops[j].Targets()
			tel := testkit.NearTarget(rng, ips, pow)
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

// supFuzzRun steps one fleet loop and its standalone twin through the
// schedule data decodes (testkit.SupSchedule), and returns their
// pairing.
func supFuzzRun(t *testing.T, data []byte, seed int64) *pairing {
	three := seed%2 == 0
	p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
		f, a := supervisor.New(designedController(t, three), supervisor.Options{}), supervisor.New(designedController(t, three), supervisor.Options{})
		f.SetTargets(2, 6)
		a.SetTargets(2, 6)
		return f, a
	})
	epoch := 0
	testkit.SupSchedule(data, seed, supFuzzEpochs, p.alone.loops[0].Targets, func(e testkit.SupEpoch) {
		if e.Retarget {
			p.fleet.loops[0].SetTargets(e.IPS, e.Power)
			p.alone.loops[0].SetTargets(e.IPS, e.Power)
		}
		if e.Reset {
			p.fleet.loops[0].Reset()
			p.alone.loops[0].Reset()
		}
		var aerr error
		if e.ApplyFails {
			aerr = errApplyInject
		}
		p.step(t, epoch, func(int) sim.Telemetry { return e.Tel }, func(int) error { return aerr })
		epoch++
	})
	return p
}

// FuzzSupervisedBatchVsScalar drives one fleet loop and its standalone
// twin through a fuzz-chosen schedule of telemetry (raw-bit floats
// included), target changes, apply failures and resets, requiring the
// same configuration every epoch and the same Health, events and
// instruments at the end.
func FuzzSupervisedBatchVsScalar(f *testing.F) {
	for _, s := range testkit.SupSeeds {
		f.Add(s.Data, s.Seed)
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
// Every hold epoch carries FlagHold, and no other epoch does: an
// engaged epoch whose inner controller did not step (no innovation on
// its record) is a hold or a retry.
func TestSupFuzzSeedsReachEveryPath(t *testing.T) {
	reached := func(h supervisor.Health, holds int) map[string]bool {
		return map[string]bool{
			"dead-sensor":    h.Fallbacks > 0 && h.DeadSensorEpochs > 0,
			"apply-failures": h.Fallbacks > 0 && h.ApplyFailures >= 6 && holds > 0,
			"divergence":     h.Fallbacks > 0 && h.DivergenceAlarms > 0,
			"innovation":     h.Fallbacks > 0 && h.InnovationAlarms > 0,
			"reengage":       h.Reengagements > 0,
		}
	}
	for _, s := range testkit.SupSeeds {
		var want []string
		for _, path := range []string{"dead-sensor", "apply-failures", "divergence", "innovation", "reengage"} {
			if strings.Contains(s.Name, path) {
				want = append(want, path)
			}
		}
		if len(want) == 0 {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			p := supFuzzRun(t, s.Data, s.Seed)
			h := p.e.Health(0)
			holds := 0
			for _, ev := range p.requireSame(t) {
				held := ev.Mode == obs.ModeEngaged && math.IsNaN(ev.InnovNorm)
				if flagged := ev.Flags&obs.FlagHold != 0; flagged != held {
					t.Fatalf("epoch %d: held %v, FlagHold %v (flags %#x)", ev.Epoch, held, flagged, ev.Flags)
				}
				if held {
					holds++
				}
			}
			got := reached(h, holds)
			for _, path := range want {
				if !got[path] {
					t.Errorf("seed does not reach %s: %+v, %d hold epochs", path, h, holds)
				}
			}
		})
	}
}
