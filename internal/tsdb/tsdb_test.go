package tsdb

import (
	"math"
	"sort"
	"testing"

	"mimoctl/internal/obs"
)

// Append records one row with t.mu held: the tests fill tables through
// it, the recorder through appendRow.
func (t *Table) Append(epoch uint64, vals ...float64) {
	if len(vals) != len(t.signals) {
		panic("tsdb: row width differs from the table's signal count")
	}
	t.mu.Lock()
	t.appendRow(epoch, vals)
	t.mu.Unlock()
}

func TestSeriesRawRoundTrip(t *testing.T) {
	db := New(Options{})
	s := db.Table("loop-a", []string{"ips"})
	for e := uint64(0); e < 100; e++ {
		s.Append(e, float64(e)*1.5)
	}
	pts, res := s.Query(nil, "ips", 0, 99, ResRaw)
	if res != ResRaw {
		t.Fatalf("res = %v, want raw", res)
	}
	if len(pts) != 100 {
		t.Fatalf("got %d points, want 100", len(pts))
	}
	for i, p := range pts {
		if p.Epoch != uint64(i) || p.Mean != float64(i)*1.5 || p.Count != 1 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestRollupAggregates(t *testing.T) {
	db := New(Options{})
	s := db.Table("loop-a", []string{"ips"})
	// Three full 16-epoch windows of v = epoch.
	for e := uint64(0); e < 48; e++ {
		s.Append(e, float64(e))
	}
	s.Sync()
	pts, res := s.Query(nil, "ips", 0, 47, ResMid)
	if res != ResMid {
		t.Fatalf("res = %v, want 16x", res)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d mid points, want 3: %+v", len(pts), pts)
	}
	for i, p := range pts {
		base := float64(i * 16)
		if p.Epoch != uint64(i*16) || p.Count != 16 {
			t.Fatalf("window %d: %+v", i, p)
		}
		if p.Min != base || p.Max != base+15 || p.Mean != base+7.5 {
			t.Fatalf("window %d stats: %+v", i, p)
		}
	}
}

func TestRollupCascadeToCoarse(t *testing.T) {
	db := New(Options{})
	s := db.Table("loop-a", []string{"ips"})
	for e := uint64(0); e < 512; e++ {
		s.Append(e, 1.0)
	}
	s.Sync()
	pts, res := s.Query(nil, "ips", 0, 511, ResCoarse)
	if res != ResCoarse {
		t.Fatalf("res = %v, want 256x", res)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d coarse points, want 2: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.Epoch != uint64(i*256) || p.Count != 256 || p.Mean != 1.0 || p.Min != 1.0 || p.Max != 1.0 {
			t.Fatalf("coarse window %d: %+v", i, p)
		}
	}
}

func TestRollupExcludesNonFinite(t *testing.T) {
	db := New(Options{})
	s := db.Table("loop-a", []string{"ips"})
	// Window 0: finite values with a NaN and an Inf mixed in.
	s.Append(0, 2)
	s.Append(1, math.NaN())
	s.Append(2, 4)
	s.Append(3, math.Inf(1))
	// Window 1: only non-finite samples.
	s.Append(16, math.NaN())
	s.Append(17, math.Inf(-1))
	// Open window 2 to force both earlier windows to flush.
	s.Append(32, 1)
	s.Sync()

	pts, _ := s.Query(nil, "ips", 0, 31, ResMid)
	if len(pts) != 2 {
		t.Fatalf("got %d mid points, want 2: %+v", len(pts), pts)
	}
	if pts[0].Count != 2 || pts[0].Min != 2 || pts[0].Max != 4 || pts[0].Mean != 3 {
		t.Fatalf("window 0: %+v", pts[0])
	}
	if pts[1].Count != 0 || !math.IsNaN(pts[1].Mean) {
		t.Fatalf("all-non-finite window: %+v", pts[1])
	}

	// Raw resolution still shows the sentinels bit-exactly.
	raw, _ := s.Query(nil, "ips", 1, 1, ResRaw)
	if len(raw) != 1 || !math.IsNaN(raw[0].Mean) {
		t.Fatalf("raw NaN sample: %+v", raw)
	}
}

func TestRingEvictionKeepsRecent(t *testing.T) {
	// Small retention: force lots of seals and evictions at every level.
	opts := Options{RawEpochs: 512, MidEpochs: 2048, CoarseEpochs: 32768}
	db := New(opts)
	s := db.Table("loop-a", []string{"ips"})
	const n = 100000
	for e := uint64(0); e < n; e++ {
		// Incompressible-ish values.
		s.Append(e, math.Float64frombits(0x3ff0000000000000|e*0x9e3779b97f4a7c15))
	}
	oldest, ok := s.OldestEpoch(ResRaw)
	if !ok {
		t.Fatal("raw level empty after 100k appends")
	}
	if oldest == 0 {
		t.Fatal("raw ring never evicted")
	}
	// Retention is counted in epochs: at least RawEpochs back from the
	// newest row, at most one 256-epoch block more.
	if kept := n - oldest; kept < uint64(opts.RawEpochs) || kept > uint64(opts.RawEpochs)+blockRows[ResRaw] {
		t.Fatalf("raw level keeps %d epochs, want %d plus at most one block", kept, opts.RawEpochs)
	}
	// Whatever remains must be a contiguous, correctly-valued suffix.
	pts, _ := s.Query(nil, "ips", oldest, n-1, ResRaw)
	want := oldest
	for _, p := range pts {
		if p.Epoch != want {
			t.Fatalf("gap: epoch %d, want %d", p.Epoch, want)
		}
		wantV := math.Float64frombits(0x3ff0000000000000 | p.Epoch*0x9e3779b97f4a7c15)
		if math.Float64bits(p.Mean) != math.Float64bits(wantV) {
			t.Fatalf("epoch %d: %v, want %v", p.Epoch, p.Mean, wantV)
		}
		want++
	}
	if want != n {
		t.Fatalf("retained range ends at %d, want %d", want-1, n-1)
	}
	// Coarser levels reach further back, each by its own epoch count.
	midOldest, _ := s.OldestEpoch(ResMid)
	coarseOldest, ok := s.OldestEpoch(ResCoarse)
	if !ok || coarseOldest >= midOldest || midOldest >= oldest {
		t.Fatalf("retention not nested: raw from %d, 16x from %d, 256x from %d", oldest, midOldest, coarseOldest)
	}
	if kept := n - coarseOldest; kept < uint64(opts.CoarseEpochs) {
		t.Fatalf("256x level keeps %d epochs, want at least %d", kept, opts.CoarseEpochs)
	}
}

// TestRetentionSameForEverySignal: retention is a property of the
// loop's table, so a constant signal keeps exactly the raw span of a
// noisy one.
func TestRetentionSameForEverySignal(t *testing.T) {
	db := New(Options{})
	s := db.Table("loop-a", []string{"noisy", "flat"})
	const n = 20000
	for e := uint64(0); e < n; e++ {
		s.Append(e, math.Float64frombits(e*0x9e3779b97f4a7c15), 3)
	}
	noisy, _ := s.Query(nil, "noisy", 0, n, ResRaw)
	flat, _ := s.Query(nil, "flat", 0, n, ResRaw)
	if len(noisy) != len(flat) || noisy[0].Epoch != flat[0].Epoch {
		t.Fatalf("noisy keeps %d raw points from %d, flat %d from %d",
			len(noisy), noisy[0].Epoch, len(flat), flat[0].Epoch)
	}
	if len(noisy) < defaultRetention[ResRaw] {
		t.Fatalf("raw level keeps %d epochs, want at least %d", len(noisy), defaultRetention[ResRaw])
	}
}

func TestResAutoFallsBack(t *testing.T) {
	db := New(Options{RawEpochs: 512, MidEpochs: 4096, CoarseEpochs: 65536})
	s := db.Table("loop-a", []string{"ips"})
	const n = 50000
	for e := uint64(0); e < n; e++ {
		s.Append(e, math.Float64frombits(e*0x9e3779b97f4a7c15))
	}
	s.Sync()
	rawOldest, _ := s.OldestEpoch(ResRaw)
	if rawOldest == 0 {
		t.Fatal("raw ring did not wrap")
	}
	// A query from before raw retention must pick a coarser level.
	_, res := s.Query(nil, "ips", 0, n-1, ResAuto)
	if res != ResCoarse {
		t.Fatalf("auto picked %v for from=0 with raw retention starting at %d, want 256x", res, rawOldest)
	}
	// One inside the 16x span gets 16x, and a recent one raw.
	_, res = s.Query(nil, "ips", n-3000, n-1, ResAuto)
	if res != ResMid {
		t.Fatalf("auto picked %v for a window inside the 16x span, want 16x", res)
	}
	_, res = s.Query(nil, "ips", n-10, n-1, ResAuto)
	if res != ResRaw {
		t.Fatalf("auto picked %v for a recent window, want raw", res)
	}
	// When no level reaches back to from, auto takes the coarsest level
	// holding rows: history that starts late and has not filled a 16x
	// window yet is only raw.
	late := db.Table("loop-late", []string{"ips"})
	for e := uint64(1024); e < 1034; e++ {
		late.Append(e, 1)
	}
	if _, res := late.Query(nil, "ips", 0, n, ResAuto); res != ResRaw {
		t.Fatalf("auto picked %v for raw-only history starting past from, want raw", res)
	}
	late.Sync()
	if _, res := late.Query(nil, "ips", 0, n, ResAuto); res != ResCoarse {
		t.Fatalf("auto picked %v for synced history starting past from, want 256x", res)
	}
}

func TestQueryFleet(t *testing.T) {
	db := New(Options{})
	for i, loop := range []string{"a", "b", "c", "d"} {
		s := db.Table(loop, []string{"ips"})
		for e := uint64(0); e < 32; e++ {
			s.Append(e, float64(i+1)) // loop a=1, b=2, c=3, d=4
		}
		s.Sync()
	}
	pts, res := db.QueryFleet("ips", 0, 31, ResRaw, []float64{0.5})
	if res != ResRaw {
		t.Fatalf("res = %v", res)
	}
	if len(pts) != 32 {
		t.Fatalf("got %d fleet points, want 32", len(pts))
	}
	for _, p := range pts {
		if p.Loops != 4 || p.Min != 1 || p.Max != 4 || p.Mean != 2.5 {
			t.Fatalf("fleet point %+v", p)
		}
		if len(p.Quantiles) != 1 || p.Quantiles[0] != 2.5 {
			t.Fatalf("median %v, want 2.5", p.Quantiles)
		}
	}
	// Unknown signal: empty but typed result.
	none, _ := db.QueryFleet("nope", 0, 31, ResAuto, nil)
	if len(none) != 0 {
		t.Fatalf("unknown signal returned %d points", len(none))
	}
}

// TestQueryFleetAutoResolvesOnce: with res=auto the fleet query
// resolves one level for every loop, so each bucket pools points of the
// resolution it reports. One loop is long enough that its raw and 16x
// levels no longer reach epoch 0, the other is short; both are written
// through the recorder with default options.
func TestQueryFleetAutoResolvesOnce(t *testing.T) {
	db := New(Options{})
	names := map[uint32]string{0: "a-short", 1: "b-long"}
	rec := NewRecorder(db, func(id uint32) string { return names[id] })
	const short, long = 300, 40000
	var batch []obs.Event
	for e := uint64(0); e < long; e++ {
		ips := math.Float64frombits(0x3ff0000000000000 | e*0x9e3779b97f4a7c15&0xfffffffffffff)
		if e < short {
			batch = append(batch, testEvent(0, e, 2+ips, 2.5, 10, 10))
		}
		batch = append(batch, testEvent(1, e, ips, 2.5, 10, 10))
		if len(batch) >= 256 {
			if err := rec.WriteEvents(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := rec.WriteEvents(batch); err != nil {
		t.Fatal(err)
	}
	rec.Sync()
	pts, res := db.QueryFleet("ips", 0, math.MaxUint64, ResAuto, nil)
	if res == ResRaw {
		t.Fatal("fleet query reports raw resolution though b-long's raw level no longer reaches epoch 0")
	}
	// The fleet answer must be exactly the per-loop answers at the
	// reported resolution, pooled per bucket.
	want := map[uint64][]float64{}
	for _, loop := range []string{"a-short", "b-long"} {
		lp, _ := db.Query(nil, loop, "ips", 0, math.MaxUint64, res)
		for _, p := range lp {
			want[p.Epoch] = append(want[p.Epoch], p.Mean)
		}
	}
	if len(pts) != len(want) {
		t.Fatalf("fleet query at %v has %d buckets, the loops' %v points %d", res, len(pts), res, len(want))
	}
	for _, p := range pts {
		vals := want[p.Epoch]
		if p.Epoch%res.Factor() != 0 || p.Loops != len(vals) {
			t.Fatalf("bucket %d pools %d loops, want %d points of %v", p.Epoch, p.Loops, len(vals), res)
		}
		sort.Float64s(vals)
		if p.Min != vals[0] || p.Max != vals[len(vals)-1] {
			t.Fatalf("bucket %d: min/max %v/%v, loops' %v points %v", p.Epoch, p.Min, p.Max, res, vals)
		}
	}
	for _, e := range []uint64{0, 256} {
		if len(want[e]) != 2 {
			t.Fatalf("bucket %d holds %d loops, want both", e, len(want[e]))
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.95, 3.85},
	}
	for _, c := range cases {
		if got := quantileSorted(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	if got := quantileSorted([]float64{7}, 0.99); got != 7 {
		t.Fatalf("single-sample quantile = %v", got)
	}
}

// TestIngestAllocFree is the zero-alloc gate for the steady-state
// ingest path: after warmup (every ring wrapped, so every block buffer
// has been recycled at least once), appends — including ones that
// seal blocks and evict ring slots — must not allocate.
func TestIngestAllocFree(t *testing.T) {
	db := New(Options{RawEpochs: 1024, MidEpochs: 4096, CoarseEpochs: 32768})
	s := db.Table("loop-a", []string{"ips", "power_w", "mode"})
	// Warmup: wrap every ring at least once so eviction recycling is in
	// steady state.
	e := uint64(0)
	for ; e < 200000; e++ {
		s.Append(e, math.Float64frombits(e*0x9e3779b97f4a7c15), float64(e%7), 1)
	}
	const n = 50000
	start := e
	avg := testing.AllocsPerRun(1, func() {
		for i := uint64(0); i < n; i++ {
			e := start + i
			s.Append(e, math.Float64frombits(e*0x9e3779b97f4a7c15), float64(e%7), 1)
		}
		start += n
	})
	if avg != 0 {
		t.Fatalf("steady-state ingest allocated (%.1f allocs per %d appends)", avg, n)
	}
}
