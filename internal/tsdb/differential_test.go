package tsdb

import (
	"math"
	"math/rand"
	"testing"

	"mimoctl/internal/obs"
)

// The per-loop tables must answer every query the per-series reference
// store (reference_test.go) answers, bit for bit, wherever both still
// retain history. The stores retain different spans — the reference
// counts bytes per series, the tables epochs per loop — so each
// comparison starts at the later of the two oldest retained epochs.

// diffStream generates a fleet's event stream: per loop, random walks
// on the measured signals, constant columns with rare steps, NaN
// (with payloads) and ±Inf samples, and epoch gaps the way bus drops
// leave them — single epochs, short bursts, and runs longer than a
// block.
type diffStream struct {
	rng    *rand.Rand
	loops  []diffLoop
	nanPct float64
}

type diffLoop struct {
	epoch            uint64
	ips, pw, innov   float64
	ipsT, pwT, guard float64
	mode             uint8
	freq, cache, rob int16
}

func newDiffStream(seed int64, loops int, nanPct float64) *diffStream {
	s := &diffStream{rng: rand.New(rand.NewSource(seed)), nanPct: nanPct}
	for i := 0; i < loops; i++ {
		s.loops = append(s.loops, diffLoop{
			ips: 2 + float64(i), pw: 10, innov: 0.1,
			ipsT: 2.5, pwT: 12, guard: 0.3, freq: 3, cache: 4, rob: 5,
		})
	}
	return s
}

// special returns a non-finite sample: NaN with a random payload, or
// an infinity.
func (s *diffStream) special() float64 {
	switch s.rng.Intn(3) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	}
	return math.Float64frombits(0x7ff0000000000001 | s.rng.Uint64()&0x800fffffffffffff)
}

func (s *diffStream) value(v float64) float64 {
	if s.rng.Float64() < s.nanPct {
		return s.special()
	}
	return v
}

// epochs advances every loop by one epoch and appends the events the
// bus would deliver, interleaved by loop.
func (s *diffStream) epochs(batch []obs.Event) []obs.Event {
	for id := range s.loops {
		l := &s.loops[id]
		l.epoch++
		switch r := s.rng.Float64(); {
		case r < 0.0002:
			l.epoch += uint64(300 + s.rng.Intn(5000)) // past a block
		case r < 0.01:
			l.epoch += uint64(1 + s.rng.Intn(8)) // a short burst
		case r < 0.05:
			continue // this epoch's event dropped
		}
		l.ips += 0.01 * s.rng.NormFloat64()
		l.pw += 0.05 * s.rng.NormFloat64()
		l.innov = math.Abs(l.innov + 0.002*s.rng.NormFloat64())
		if s.rng.Float64() < 0.001 {
			l.ipsT, l.pwT = 1+3*s.rng.Float64(), 8+8*s.rng.Float64()
		}
		if s.rng.Float64() < 0.002 {
			l.mode ^= 1
		}
		if s.rng.Float64() < 0.05 {
			l.freq = int16(s.rng.Intn(16))
		}
		batch = append(batch, obs.Event{
			LoopID: uint32(id), Epoch: l.epoch,
			IPS: s.value(l.ips), PowerW: s.value(l.pw),
			IPSTarget: l.ipsT, PowerTarget: l.pwT,
			InnovNorm: s.value(l.innov), Guardband: l.guard,
			Mode: l.mode, ReqFreq: l.freq, ReqCache: l.cache, ReqROB: l.rob,
		})
	}
	return batch
}

// samePoints compares two query results by math.Float64bits.
func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Epoch != w.Epoch || g.Count != w.Count ||
			math.Float64bits(g.Min) != math.Float64bits(w.Min) ||
			math.Float64bits(g.Max) != math.Float64bits(w.Max) ||
			math.Float64bits(g.Mean) != math.Float64bits(w.Mean) {
			t.Fatalf("%s point %d: %+v, reference %+v", what, i, g, w)
		}
	}
}

func sameFleet(t *testing.T, what string, got, want []FleetPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, reference %d", what, len(got), len(want))
	}
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range got {
		g, w := got[i], want[i]
		ok := g.Epoch == w.Epoch && g.Loops == w.Loops && bitsEq(g.Min, w.Min) &&
			bitsEq(g.Max, w.Max) && bitsEq(g.Mean, w.Mean) && len(g.Quantiles) == len(w.Quantiles)
		for j := 0; ok && j < len(g.Quantiles); j++ {
			ok = bitsEq(g.Quantiles[j], w.Quantiles[j])
		}
		if !ok {
			t.Fatalf("%s bucket %d: %+v, reference %+v", what, i, g, w)
		}
	}
}

// compareStores checks every raw, 16x and 256x point of every loop and
// signal, and the fleet-wide aggregate of every signal at every level,
// over the epochs both stores retain. It counts the per-loop points it
// compared into n.
func compareStores(t *testing.T, db *DB, ref *refDB, loops int, n *[3]int) {
	t.Helper()
	var got, want []Point
	qs := []float64{0.1, 0.5, 0.95}
	for _, sig := range Signals {
		for lv := ResRaw; lv <= ResCoarse; lv++ {
			fleetFrom := uint64(0)
			for id := 0; id < loops; id++ {
				loop := "loop-" + itoa(uint64(id))
				newOldest, ok1 := db.lookup(loop).OldestEpoch(lv)
				refOldest, ok2 := ref.Lookup(loop, sig).OldestEpoch(lv)
				if ok1 != ok2 {
					t.Fatalf("%s/%s %v: level held %v, reference %v", loop, sig, lv, ok1, ok2)
				}
				from := max(newOldest, refOldest)
				fleetFrom = max(fleetFrom, from)
				got, _ = db.Query(got[:0], loop, sig, from, math.MaxUint64, lv)
				want, _ = ref.Query(want[:0], loop, sig, from, math.MaxUint64, lv)
				samePoints(t, loop+"/"+sig+" "+lv.String(), got, want)
				n[lv] += len(got)
			}
			gf, gres := db.QueryFleet(sig, fleetFrom, math.MaxUint64, lv, qs)
			wf, wres := ref.QueryFleet(sig, fleetFrom, math.MaxUint64, lv, qs)
			if gres != wres {
				t.Fatalf("fleet %s: resolution %v, reference %v", sig, gres, wres)
			}
			sameFleet(t, "fleet "+sig+" "+lv.String(), gf, wf)
		}
	}
}

func TestTablesMatchReferenceStore(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		nanPct float64
	}{
		{"finite", 1, 0},
		{"sentinels", 2, 0.02},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const loops = 3
			// Small retention on both sides, so every level wraps at
			// least three times: the 256x table level holds one sealed
			// 16 384-epoch block, and the run is over 100 000 epochs.
			opts := Options{RawEpochs: 512, MidEpochs: 2048, CoarseEpochs: 16384}
			db := New(opts)
			ref := refNew(refOptions{BlockBytes: 512, RawBlocks: 2, MidBlocks: 2, CoarseBlocks: 2})
			rec, refRec := NewRecorder(db, nil), newRefRecorder(ref)
			src := newDiffStream(c.seed, loops, c.nanPct)
			var batch []obs.Event
			var compared [3]int
			const epochs = 110000
			for k := 1; k <= epochs; k++ {
				batch = src.epochs(batch)
				if len(batch) >= 250 || k == epochs {
					if err := rec.WriteEvents(batch); err != nil {
						t.Fatal(err)
					}
					if err := refRec.WriteEvents(batch); err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
				if k%4000 == 0 {
					compareStores(t, db, ref, loops, &compared)
				}
			}
			rec.Sync()
			refRec.Sync()
			compareStores(t, db, ref, loops, &compared)
			// Every level was compared over several times its retention.
			for lv, n := range compared {
				if n < 3*loops*len(Signals)*opts.retention()[lv]/int(levelFactors[lv]) {
					t.Fatalf("level %d: only %d points compared", lv, n)
				}
			}
			t.Logf("points compared per level: %v", compared)
			for id := 0; id < loops; id++ {
				tab := db.lookup("loop-" + itoa(uint64(id)))
				for lv := range tab.levels {
					l := &tab.levels[lv]
					if sealed := uint64(len(l.ring)) + 1; tab.last < 3*sealed*l.span {
						t.Fatalf("loop %d level %d: %d epochs do not wrap its %d-block ring three times", id, lv, tab.last, sealed)
					}
				}
			}
		})
	}
}
