package batch

import (
	"math/rand"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
)

// twin returns two identically built supervised loops over clones of
// the 2- or 3-input design, with the same targets.
func twin(t testing.TB, three bool, ips, pow float64) (*supervisor.Supervised, *supervisor.Supervised) {
	f := supervisor.New(designedController(t, three), supervisor.Options{})
	a := supervisor.New(designedController(t, three), supervisor.Options{})
	f.SetTargets(ips, pow)
	a.SetTargets(ips, pow)
	return f, a
}

// TestBatchLaneLifecycle covers fleet sizes — empty, one loop, eight
// and seven — and a loop joining mid-run: ids are sequential, Len
// counts the loops, and every loop tracks its standalone twin.
func TestBatchLaneLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		loops int
	}{
		{"empty", 0},
		{"single", 1},
		{"unroll-multiple", 8},
		{"non-multiple", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + tc.loops)))
			p := newPairing(t, tc.loops, func(i int) (*supervisor.Supervised, *supervisor.Supervised) {
				return twin(t, i%2 == 0, 1+rng.Float64()*3, 1+rng.Float64()*10)
			})
			if len(p.e.loops) != tc.loops {
				t.Fatalf("Len=%d, want %d", len(p.e.loops), tc.loops)
			}
			if tc.loops == 0 {
				// StepAll on an empty engine is a no-op, not an error.
				if err := p.e.StepAll(nil, nil); err != nil {
					t.Fatal(err)
				}
				return
			}
			tel := func(int) sim.Telemetry { return randTelemetry(rng) }
			ep := 0
			for ; ep < 40; ep++ {
				p.step(t, ep, tel, nil)
			}
			// A loop joins mid-run with the next id.
			f, a := twin(t, true, 2, 5)
			p.fleet.add(f)
			p.alone.add(a)
			id, err := p.e.Add(f)
			if err != nil {
				t.Fatal(err)
			}
			if id != tc.loops || len(p.e.loops) != tc.loops+1 {
				t.Fatalf("mid-run Add: id %d, Len %d; want %d, %d", id, len(p.e.loops), tc.loops, tc.loops+1)
			}
			p.tels = append(p.tels, sim.Telemetry{})
			p.out = append(p.out, sim.Config{})
			for ; ep < 80; ep++ {
				p.step(t, ep, tel, nil)
			}
			p.requireSame(t)
		})
	}
}

// TestBatchCloneRoundTrip starts a fleet loop from a controller cloned
// mid-run, and steps that loop outside the engine for a stretch and
// then through it again: the engine keeps no per-loop state, so the
// loop stays bit-identical to the original stepped standalone
// throughout.
func TestBatchCloneRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := designedController(t, true)
	orig.SetTargets(2.5, 6)
	cfg := sim.MidrangeConfig()
	for ep := 0; ep < 300; ep++ {
		tel := randTelemetry(rng)
		tel.Config = cfg
		cfg = orig.Step(tel)
	}
	clone := orig.Clone()
	p := newPairing(t, 1, func(int) (*supervisor.Supervised, *supervisor.Supervised) {
		return supervisor.New(clone, supervisor.Options{}), supervisor.New(orig, supervisor.Options{})
	})
	p.fleet.cfgs[0], p.alone.cfgs[0] = cfg, cfg
	tel := func(int) sim.Telemetry { return randTelemetry(rng) }
	ep := 0
	for ; ep < 200; ep++ {
		p.step(t, ep, tel, nil)
	}
	// Out of the engine: both loops step standalone.
	for ; ep < 400; ep++ {
		tf, ta := randTelemetry(rng), sim.Telemetry{}
		tf.Epoch, tf.Config = ep, p.fleet.cfgs[0]
		ta = tf
		ta.Config = p.alone.cfgs[0]
		got, want := p.fleet.loops[0].Step(tf), p.alone.loops[0].Step(ta)
		if got != want {
			t.Fatalf("epoch %d outside the engine: %+v, standalone %+v", ep, got, want)
		}
		p.fleet.cfgs[0], p.alone.cfgs[0] = got, want
	}
	for ; ep < 600; ep++ {
		p.step(t, ep, tel, nil)
	}
	p.requireSame(t)
	if h := p.e.Health(0); h.Epochs != 600 {
		t.Fatalf("loop stepped %d epochs, want 600", h.Epochs)
	}
}

// TestBatchAddRejections pins what Add refuses: a nil loop, and a loop
// already in the fleet, which StepAll would step twice an epoch.
func TestBatchAddRejections(t *testing.T) {
	t.Run("nil", func(t *testing.T) {
		if _, err := NewSupervised().Add(nil); err == nil {
			t.Fatal("nil loop accepted")
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		e := NewSupervised()
		s := supervisor.New(designedController(t, false), supervisor.Options{})
		if _, err := e.Add(s); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Add(s); err == nil {
			t.Fatal("a loop already in the fleet accepted again")
		}
		if len(e.loops) != 1 {
			t.Fatalf("Len=%d after a refused Add, want 1", len(e.loops))
		}
	})
}

// TestBatchStepAllSliceCheck pins the slice-length contract.
func TestBatchStepAllSliceCheck(t *testing.T) {
	e := NewSupervised()
	if _, err := e.Add(supervisor.New(designedController(t, true), supervisor.Options{})); err != nil {
		t.Fatal(err)
	}
	if err := e.StepAll(nil, make([]sim.Config, 1)); err == nil {
		t.Fatal("short telemetry slice accepted")
	}
	if err := e.StepAll(make([]sim.Telemetry, 1), nil); err == nil {
		t.Fatal("short output slice accepted")
	}
}
