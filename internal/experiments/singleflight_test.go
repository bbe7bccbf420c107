package experiments

import (
	"sync"
	"sync/atomic"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
)

// TestDesignCacheSingleFlight hammers the memoized design entry points
// from 16 goroutines with a cold key and asserts single-flight
// semantics: every caller gets the exact same identification and
// controller pointer (and error), i.e. each ran once and nobody
// observed a partial or duplicate construction. Run under -race (make
// check does) this also proves the cache itself is data-race free.
func TestDesignCacheSingleFlight(t *testing.T) {
	// A seed no other test uses, so this test — not a warm cache —
	// exercises the concurrent first-design path.
	const seed = DefaultSeed + 424242
	const goroutines = 16

	var start, done sync.WaitGroup
	ids := make([]any, goroutines)
	mimos := make([]any, goroutines)
	decs := make([]any, goroutines)
	idErrs := make([]error, goroutines)
	mimoErrs := make([]error, goroutines)
	decErrs := make([]error, goroutines)
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer done.Done()
			start.Wait() // line everyone up on the cold key
			id, ierr := identifiedMIMO(false, seed, 2)
			m, _, merr := DesignedMIMO(false, seed)
			d, derr := DesignedDecoupled(seed)
			ids[g], idErrs[g] = id, ierr
			mimos[g], mimoErrs[g] = m, merr
			decs[g], decErrs[g] = d, derr
		}()
	}
	start.Done()
	done.Wait()

	if idErrs[0] != nil {
		t.Fatalf("identifiedMIMO: %v", idErrs[0])
	}
	if mimoErrs[0] != nil {
		t.Fatalf("DesignedMIMO: %v", mimoErrs[0])
	}
	if decErrs[0] != nil {
		t.Fatalf("DesignedDecoupled: %v", decErrs[0])
	}
	for g := 1; g < goroutines; g++ {
		if ids[g] != ids[0] || idErrs[g] != idErrs[0] {
			t.Fatalf("goroutine %d got a different identification/error: %p vs %p",
				g, ids[g], ids[0])
		}
		if mimos[g] != mimos[0] || mimoErrs[g] != mimoErrs[0] {
			t.Fatalf("goroutine %d got a different MIMO instance/error: %p vs %p",
				g, mimos[g], mimos[0])
		}
		if decs[g] != decs[0] || decErrs[g] != decErrs[0] {
			t.Fatalf("goroutine %d got a different Decoupled instance/error: %p vs %p",
				g, decs[g], decs[0])
		}
	}
}

// TestIdentificationsSharedPerSeed: the standard designs of both knob
// sets, Fig6, Fig7, Fig8 and the ablation, at their golden budgets,
// identify the plant once per (knob set, model dimension): five
// identifications for the seed, where each of their 14 designs used to
// collect and fit its own and Fig7 fit four models on a record of its
// own. Every design at a key shares that key's model. They collect
// three training records: one per standard design, and one that Fig7's
// three cold dimensions share, where each used to collect its own.
func TestIdentificationsSharedPerSeed(t *testing.T) {
	const seed = DefaultSeed + 737373 // no other test uses it
	var collected atomic.Int64
	prev := collectTraining
	defer func() { collectTraining = prev }()
	collectTraining = func(training []sim.Workload, threeInput bool, epochsPerApp int, seed int64) (*sysid.Data, error) {
		collected.Add(1)
		return prev(training, threeInput, epochsPerApp, seed)
	}
	_, rep2, err := DesignedMIMO(false, seed)
	if err != nil {
		t.Fatal(err)
	}
	_, rep3, err := DesignedMIMO(true, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := collected.Load(); got != 2 {
		t.Errorf("the standard designs collected %d training records, want 2", got)
	}
	for _, c := range []struct {
		name string
		run  func() (Tabular, error)
		want int64 // training records the experiment collects
	}{
		{"fig6", func() (Tabular, error) { return Fig6(seed, 600) }, 0},
		{"fig7", func() (Tabular, error) { return Fig7(seed, 8) }, 1},
		{"fig8", func() (Tabular, error) { return Fig8(seed, 400) }, 0},
		{"ablation", func() (Tabular, error) { return Ablation(seed, 800) }, 0},
	} {
		before := collected.Load()
		if _, err := c.run(); err != nil {
			t.Fatal(err)
		}
		if got := collected.Load() - before; got != c.want {
			t.Errorf("%s collected %d training records, want %d", c.name, got, c.want)
		}
	}
	dims := map[identKey]bool{}
	designCache.Range(func(key, _ any) bool {
		if k, ok := key.(identKey); ok && k.seed == seed {
			dims[k] = true
		}
		return true
	})
	want := map[identKey]bool{
		{false, 2, seed}: true, {false, 4, seed}: true, {false, 6, seed}: true,
		{false, 8, seed}: true, {true, 4, seed}: true,
	}
	if len(dims) != len(want) {
		t.Errorf("the cache holds %d identifications for the seed, want %d: %v", len(dims), len(want), dims)
	}
	for k := range want {
		if !dims[k] {
			t.Errorf("no identification cached for %+v", k)
		}
	}
	for _, c := range []struct {
		rep   *core.DesignReport
		three bool
	}{{rep2, false}, {rep3, true}} {
		id, err := identifiedMIMO(c.three, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.rep.Model != id.Model {
			t.Errorf("DesignedMIMO(%v) does not share the memoized model", c.three)
		}
	}
}
