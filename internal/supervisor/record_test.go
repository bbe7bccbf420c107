package supervisor_test

import (
	"testing"

	"mimoctl/internal/adapt"
	"mimoctl/internal/experiments"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/workloads"
)

// TestAdaptFlagsOnTheirOwnEpoch: the supervisor writes the records of
// the engaged epochs its MIMO inner steps, so the adaptation flags the
// epoch raises after the inner step (excitation dither on the issued
// configuration, a hot swap) land on that epoch's record, not the next
// one. The adapter's state on entry to an epoch says which flags the
// epoch raises.
func TestAdaptFlagsOnTheirOwnEpoch(t *testing.T) {
	sup, err := experiments.NewAdaptiveSupervised(experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 1500
	rec := flightrec.New(epochs)
	sup.SetFlightRecorder(rec)
	w, err := workloads.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	ad := sup.Adapter()
	ad.NoteModelFallback()

	want := make([]uint32, epochs)
	tel := proc.Step()
	for k := range want {
		before := ad.State()
		cfg := sup.Step(tel)
		if before == adapt.StateExciting {
			want[k] |= obs.FlagExcitation
		}
		if before == adapt.StateVerifying && ad.State() == adapt.StateSwapped {
			want[k] |= obs.FlagAdaptSwap
		}
		sup.ObserveApply(cfg, proc.Apply(cfg))
		tel = proc.Step()
	}

	const adaptFlags = obs.FlagExcitation | obs.FlagAdaptSwap | obs.FlagAdaptRevert
	recs := rec.Snapshot()
	if len(recs) != epochs {
		t.Fatalf("recorded %d epochs, want %d", len(recs), epochs)
	}
	excited, swapped := 0, 0
	for k, r := range recs {
		if r.Epoch != uint64(k+1) {
			t.Fatalf("record %d has epoch %d", k, r.Epoch)
		}
		if got := r.Flags & adaptFlags; got != want[k] {
			t.Fatalf("epoch %d (mode %d): adaptation flags %#x, want %#x", r.Epoch, r.Mode, got, want[k])
		}
		if r.Mode != obs.ModeEngaged {
			continue
		}
		if r.Flags&obs.FlagExcitation != 0 {
			excited++
		}
		if r.Flags&obs.FlagAdaptSwap != 0 {
			swapped++
		}
	}
	if excited+swapped == 0 {
		t.Fatalf("no engaged epoch raised an adaptation flag (adapter %+v)", ad.Stats())
	}
	if sup.Mode() != supervisor.ModeEngaged {
		t.Fatalf("the run ended in %v", sup.Mode())
	}
}
