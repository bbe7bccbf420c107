// Package tsdb is an embedded, zero-dependency time-series store for
// fleet telemetry history.
//
// Every other observability surface in this repository is
// instantaneous: /metrics and /slo report now, /events streams live,
// and the flight recorder keeps a short exhaustive ring for one loop.
// The behavior the paper's controller is judged on — guardband
// consumption, drift onset, fallback storms, SLO burn — unfolds over
// thousands of epochs, so tuning gains and auditing cap apportionment
// needs retrospective, queryable per-loop history. This package stores
// it in bounded memory:
//
//   - One Table per loop. Each recorded epoch is one row: the epoch and
//     a value per signal (the Recorder writes the 11 Signals of an
//     obs.Event), so the timestamp is paid once per row however many
//     signals the row carries.
//
//   - Rows are stored in Gorilla-compressed blocks (block.go): one
//     delta-of-delta epoch column and one XOR float column per signal,
//     each its own bit stream written a 64-bit word at a time. A
//     constant signal costs one bit per row, and a one-signal query
//     decodes only the epoch column and that signal's columns.
//
//   - Each table keeps three resolutions — raw, 16x and 256x — as rings
//     of blocks that each cover a fixed run of epochs; rollup rows
//     carry each signal's min/max/sum/count. Retention is a number of
//     epochs per level, the same for every signal of a loop (Options:
//     by default 2048, 8192 and 131072 epochs), so a million-epoch run
//     stays queryable at coarse resolution long after the raw ring has
//     wrapped, and a constant signal keeps exactly the span of a noisy
//     one.
//
//   - Sealed blocks hand their buffers, capacity intact, to the next
//     open block, so once every ring has wrapped the append path
//     performs zero heap allocations (TestIngestAllocFree) — ingestion
//     runs on the obs.Bus pump goroutine, never on the control hot path.
//
// Queries (Query, QueryFleet) decode under each table's mutex, one loop
// at a time; the /history HTTP surface lives in http.go and the
// baseline-drift detector in baseline.go.
package tsdb

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Resolution selects a rollup level for queries.
type Resolution int

const (
	// ResAuto picks the finest level whose retained history still covers
	// the queried `from` epoch (else the coarsest level holding rows).
	ResAuto Resolution = iota - 1
	// ResRaw is the raw per-epoch level.
	ResRaw
	// ResMid aggregates 16 epochs per sample.
	ResMid
	// ResCoarse aggregates 256 epochs per sample.
	ResCoarse
)

// levelFactors maps levels to their epoch-per-sample factor.
var levelFactors = [3]uint64{1, 16, 256}

// Factor returns the epochs covered by one sample at this resolution
// (0 for ResAuto).
func (r Resolution) Factor() uint64 {
	if r < ResRaw || r > ResCoarse {
		return 0
	}
	return levelFactors[r]
}

// String names the resolution as the /history API spells it.
func (r Resolution) String() string {
	switch r {
	case ResRaw:
		return "raw"
	case ResMid:
		return "16x"
	case ResCoarse:
		return "256x"
	}
	return "auto"
}

// ParseResolution inverts String; ok is false for unknown spellings.
func ParseResolution(s string) (Resolution, bool) {
	switch s {
	case "", "auto":
		return ResAuto, true
	case "raw", "1x":
		return ResRaw, true
	case "16x", "mid":
		return ResMid, true
	case "256x", "coarse":
		return ResCoarse, true
	}
	return ResAuto, false
}

// Options sizes the store: how far back each resolution reaches. The
// zero value selects the defaults.
type Options struct {
	// RawEpochs, MidEpochs and CoarseEpochs are the retention of the
	// raw, 16x and 256x levels in epochs (defaults 2048, 8192 and
	// 131072: about 0.1 s, 0.4 s and 6.5 s of 50 µs epochs). Every
	// signal of a loop keeps the same span. A level keeps at least this
	// many epochs back from its newest row, and at most one block more.
	RawEpochs, MidEpochs, CoarseEpochs int
}

// defaultRetention is each level's retention in epochs when Options
// leaves it unset.
var defaultRetention = [3]int{2048, 8192, 131072}

// blockRows is how many rows one block of each level holds, so a block
// covers blockRows × factor epochs: 256 at raw resolution, 1 024 at
// 16x and 16 384 at 256x.
var blockRows = [3]uint64{256, 64, 64}

func (o Options) retention() [3]int {
	r := [3]int{o.RawEpochs, o.MidEpochs, o.CoarseEpochs}
	for i := range r {
		if r[i] <= 0 {
			r[i] = defaultRetention[i]
		}
	}
	return r
}

// Key identifies one recorded (loop, signal) column.
type Key struct{ Loop, Signal string }

// DB is the store: one Table per loop.
type DB struct {
	retention [3]int

	mu     sync.RWMutex
	tables map[string]*Table
}

// New builds an empty store.
func New(opts Options) *DB {
	return &DB{retention: opts.retention(), tables: make(map[string]*Table)}
}

// Table returns the loop's table, creating it with one column per
// signal on first use. A later call returns the existing table
// whatever signals it names.
func (db *DB) Table(loop string, signals []string) *Table {
	db.mu.RLock()
	t := db.tables[loop]
	db.mu.RUnlock()
	if t != nil {
		return t
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t = db.tables[loop]; t == nil {
		t = newTable(loop, signals, db.retention)
		db.tables[loop] = t
	}
	return t
}

// lookup returns the loop's table, nil when absent.
func (db *DB) lookup(loop string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[loop]
}

// sorted returns every table, ordered by loop name.
func (db *DB) sorted() []*Table {
	db.mu.RLock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].loop < out[j].loop })
	return out
}

// carrying returns the tables recording signal, ordered by loop name.
func (db *DB) carrying(signal string) []*Table {
	tabs := db.sorted()
	out := tabs[:0]
	for _, t := range tabs {
		if t.col(signal) >= 0 {
			out = append(out, t)
		}
	}
	return out
}

// Keys returns every recorded (loop, signal) pair, sorted by loop then
// signal.
func (db *DB) Keys() []Key {
	var out []Key
	for _, t := range db.sorted() {
		for _, sig := range t.signals {
			out = append(out, Key{Loop: t.loop, Signal: sig})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loop != out[j].Loop {
			return out[i].Loop < out[j].Loop
		}
		return out[i].Signal < out[j].Signal
	})
	return out
}

// EpochRange reports the epoch span the store still retains at raw
// resolution across every loop: the oldest retained raw epoch and the
// newest appended one. ok is false for an empty store.
func (db *DB) EpochRange() (from, to uint64, ok bool) {
	from = math.MaxUint64
	for _, t := range db.sorted() {
		if o, okO := t.OldestEpoch(ResRaw); okO && o < from {
			from = o
		}
		if l, okL := t.LastEpoch(); okL && l >= to {
			to = l
			ok = true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return from, to, true
}

// Point is one decoded sample. Raw points carry Min=Max=Mean and
// Count=1; rollup points aggregate Count raw samples from the window
// starting at Epoch (non-finite raw samples are excluded from the
// aggregate — a window holding only those yields Count=0 and NaN
// stats).
type Point struct {
	Epoch          uint64
	Min, Max, Mean float64
	Count          uint64
}

// Query decodes the [from, to] epoch range (inclusive) of (loop,
// signal) at the given resolution, appending to dst and returning the
// extended slice together with the level actually used (meaningful for
// ResAuto). A missing loop or signal yields dst unchanged.
func (db *DB) Query(dst []Point, loop, signal string, from, to uint64, res Resolution) ([]Point, Resolution) {
	t := db.lookup(loop)
	if t == nil || t.col(signal) < 0 {
		if !res.concrete() {
			res = ResRaw
		}
		return dst, res
	}
	return t.Query(dst, signal, from, to, res)
}

func (r Resolution) concrete() bool { return r >= ResRaw && r <= ResCoarse }

// ---- tables ----

// aggState accumulates one signal's share of an open rollup window.
// An empty window holds min +Inf, max -Inf and sum -0, so the first
// finite sample lands as itself (-0 + v is v, bit for bit) without a
// first-sample branch; fill reports an empty window as NaN.
type aggState struct {
	min, max, sum float64
	count         uint64
}

var emptyAgg = aggState{min: math.Inf(1), max: math.Inf(-1), sum: math.Copysign(0, -1)}

// add folds one raw sample in; non-finite samples (v-v is NaN for NaN
// and ±Inf) are left out.
func (a *aggState) add(v float64) {
	if v-v != 0 {
		return
	}
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.sum += v
	a.count++
}

// merge folds a flushed finer-level aggregate in.
func (a *aggState) merge(b *aggState) {
	if b.count == 0 {
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.sum += b.sum
	a.count += b.count
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// window is one open rollup window: its first epoch and an aggregate
// per signal.
type window struct {
	start uint64
	open  bool
	aggs  []aggState
}

func (w *window) reset(start uint64) {
	w.start, w.open = start, true
	for i := range w.aggs {
		w.aggs[i] = emptyAgg
	}
}

// fill writes the window as a rollup row: min, max, sum and count per
// signal, with NaN stats for a signal that had no finite sample.
func (w *window) fill(row []float64) {
	nan := math.NaN()
	for i := range w.aggs {
		a := &w.aggs[i]
		r := row[rollupCols*i : rollupCols*i+rollupCols]
		if a.count == 0 {
			r[0], r[1], r[2], r[3] = nan, nan, nan, 0
			continue
		}
		r[0], r[1], r[2], r[3] = a.min, a.max, a.sum, float64(a.count)
	}
}

// level is one resolution of a table: the open block and a ring of
// sealed ones.
type level struct {
	span     uint64 // epochs one block covers
	end      uint64 // first epoch past the open block
	open     writer
	ring     []block // sealed blocks, oldest at start
	start, n int
}

func newLevel(valueCols int, span uint64, retention int) level {
	sealed := (uint64(retention) + span - 1) / span
	return level{span: span, open: newWriter(valueCols), ring: make([]block, sealed)}
}

// append encodes one row, first sealing the open block when the row
// falls past the run of epochs it covers.
func (l *level) append(t uint64, vals []float64) {
	if l.open.rows > 0 && t >= l.end {
		l.seal()
	}
	if l.open.rows == 0 {
		if l.end = t - t%l.span + l.span; l.end < t {
			l.end = math.MaxUint64
		}
	}
	l.open.append(t, vals)
}

// seal moves the open block into the ring. A full ring evicts its
// oldest block, whose buffers the next open block reuses.
func (l *level) seal() {
	slot := (l.start + l.n) % len(l.ring)
	if l.n == len(l.ring) {
		l.start = (l.start + 1) % len(l.ring)
	} else {
		l.n++
	}
	l.open.seal(&l.ring[slot])
}

// oldest returns the earliest retained epoch (ok=false when empty).
func (l *level) oldest() (uint64, bool) {
	if l.n > 0 {
		return l.ring[l.start].minT, true
	}
	if l.open.rows > 0 {
		return l.open.minT, true
	}
	return 0, false
}

// scan calls fn for every block, sealed ones oldest first and then
// the open one, whose epochs meet [from, to].
func (l *level) scan(from, to uint64, fn func(rows int, src colSource)) {
	for i := 0; i < l.n; i++ {
		if b := &l.ring[(l.start+i)%len(l.ring)]; b.maxT >= from && b.minT <= to {
			fn(b.rows, b)
		}
	}
	if w := &l.open; w.rows > 0 && w.maxT >= from && w.minT <= to {
		fn(w.rows, w)
	}
}

// Table is the history of one loop: a row per recorded epoch with a
// column per signal, kept at three resolutions. The raw level stores
// the rows as given; the 16x and 256x levels store one row per window
// with each signal's min, max, sum and count.
type Table struct {
	loop    string
	signals []string

	mu     sync.Mutex
	levels [3]level
	win    [2]window // open windows feeding the 16x and 256x levels
	row    []float64 // rollup row scratch
	last   uint64
	hasAny bool
}

func newTable(loop string, signals []string, retention [3]int) *Table {
	n := len(signals)
	t := &Table{loop: loop, signals: append([]string(nil), signals...), row: make([]float64, rollupCols*n)}
	for lv := range t.levels {
		width := n
		if lv > 0 {
			width = rollupCols * n
		}
		t.levels[lv] = newLevel(width, blockRows[lv]*levelFactors[lv], retention[lv])
	}
	for i := range t.win {
		t.win[i].aggs = make([]aggState, n)
	}
	return t
}

// col returns the column index of signal, -1 when the table lacks it.
func (t *Table) col(signal string) int {
	for i, s := range t.signals {
		if s == signal {
			return i
		}
	}
	return -1
}

// appendRow records one row: vals[i] is signal i's value at epoch.
// Epochs must be non-decreasing per table (the obs event stream
// guarantees it); violations are recorded as given. Allocation-free;
// the caller holds t.mu.
func (t *Table) appendRow(epoch uint64, vals []float64) {
	t.levels[ResRaw].append(epoch, vals)
	w := &t.win[0]
	start := epoch &^ (levelFactors[ResMid] - 1)
	if !w.open {
		w.reset(start)
	} else if w.start != start {
		t.flush(0)
		w.reset(start)
	}
	aggs := w.aggs[:len(vals)]
	for i, v := range vals {
		aggs[i].add(v)
	}
	t.last, t.hasAny = epoch, true
}

// flush writes open window i into level i+1 and, for the 16x window,
// merges it into the open 256x window.
func (t *Table) flush(i int) {
	w := &t.win[i]
	if !w.open {
		return
	}
	w.fill(t.row)
	t.levels[i+1].append(w.start, t.row)
	if i == 0 {
		c := &t.win[1]
		start := w.start &^ (levelFactors[ResCoarse] - 1)
		if !c.open {
			c.reset(start)
		} else if c.start != start {
			t.flush(1)
			c.reset(start)
		}
		for j := range c.aggs {
			c.aggs[j].merge(&w.aggs[j])
		}
	}
	w.open = false
}

// Sync flushes the open rollup windows into their levels so queries at
// 16x/256x resolution see history up to the last appended epoch.
// Windows normally flush when the next one opens; Sync is for
// end-of-run snapshots (baseline capture, goldens).
func (t *Table) Sync() {
	t.mu.Lock()
	t.flush(0)
	t.flush(1)
	t.mu.Unlock()
}

// OldestEpoch returns the earliest epoch retained at res (ok=false for
// an empty level).
func (t *Table) OldestEpoch(res Resolution) (uint64, bool) {
	if !res.concrete() {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.levels[res].oldest()
}

// LastEpoch returns the most recent appended epoch (ok=false when the
// table is empty).
func (t *Table) LastEpoch() (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last, t.hasAny
}

// reach reports, per level, whether the table holds rows there and
// whether they reach back to from. The caller holds t.mu.
func (t *Table) reach(from uint64) (held, covers [3]bool) {
	for lv := range t.levels {
		oldest, ok := t.levels[lv].oldest()
		held[lv], covers[lv] = ok, ok && oldest <= from
	}
	return held, covers
}

// autoLevel is what ResAuto resolves to: the finest level that reaches
// back to from, else the coarsest level holding rows (raw when none
// does).
func autoLevel(held, covers [3]bool) Resolution {
	for lv := ResRaw; lv <= ResCoarse; lv++ {
		if covers[lv] {
			return lv
		}
	}
	for lv := ResCoarse; lv >= ResRaw; lv-- {
		if held[lv] {
			return lv
		}
	}
	return ResRaw
}

// Query appends signal's [from, to] range (inclusive) at res to dst;
// ResAuto picks the level with autoLevel. The returned resolution is
// the level used. A signal the table lacks yields dst unchanged. Only
// the epoch column and the signal's columns are decoded.
func (t *Table) Query(dst []Point, signal string, from, to uint64, res Resolution) ([]Point, Resolution) {
	c := t.col(signal)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !res.concrete() {
		res = autoLevel(t.reach(from))
	}
	if c < 0 {
		return dst, res
	}
	var vals [rollupCols]float64
	t.levels[res].scan(from, to, func(rows int, src colSource) {
		if res == ResRaw {
			d := newRowDec(src, c, 1)
			for r := 0; r < rows; r++ {
				if e := d.next(&vals); e >= from && e <= to {
					v := vals[0]
					dst = append(dst, Point{Epoch: e, Min: v, Max: v, Mean: v, Count: 1})
				}
			}
			return
		}
		d := newRowDec(src, rollupCols*c, rollupCols)
		for r := 0; r < rows; r++ {
			if e := d.next(&vals); e >= from && e <= to {
				count := uint64(vals[3])
				mean := math.NaN()
				if count > 0 {
					mean = vals[2] / float64(count)
				}
				dst = append(dst, Point{Epoch: e, Min: vals[0], Max: vals[1], Mean: mean, Count: count})
			}
		}
	})
	return dst, res
}

// epochMean is one loop's mean of a signal at one epoch bucket.
type epochMean struct {
	epoch uint64
	mean  float64
}

// means appends the finite means of signal's [from, to] range at the
// concrete level res — the points a fleet aggregation pools — decoding
// only the epoch column and, at a rollup level, the sum and count
// columns.
func (t *Table) means(dst []epochMean, signal string, from, to uint64, res Resolution) []epochMean {
	c := t.col(signal)
	first, width := c, 1
	if res != ResRaw {
		first, width = rollupCols*c+2, 2
	}
	var vals [rollupCols]float64
	t.mu.Lock()
	defer t.mu.Unlock()
	t.levels[res].scan(from, to, func(rows int, src colSource) {
		d := newRowDec(src, first, width)
		for r := 0; r < rows; r++ {
			e := d.next(&vals)
			if e < from || e > to {
				continue
			}
			m := vals[0]
			if width == 2 {
				m = vals[0] / vals[1] // NaN for an empty window
			}
			if isFinite(m) {
				dst = append(dst, epochMean{epoch: e, mean: m})
			}
		}
	})
	return dst
}

// FleetPoint is one epoch bucket of a cross-loop aggregation: the
// distribution of per-loop means at that bucket.
type FleetPoint struct {
	Epoch     uint64
	Loops     int
	Min, Max  float64
	Mean      float64
	Quantiles []float64 // aligned with the qs passed to QueryFleet
}

// QueryFleet aggregates one signal across every loop carrying it:
// per-loop points in [from, to] at res are bucketed by epoch, and each
// bucket reports the min/max/mean and the requested quantiles of the
// per-loop mean values. ResAuto resolves once for the whole fleet — the
// finest level that reaches back to from in every loop holding rows,
// else the coarsest level any loop holds — so every bucket pools
// points of one resolution. Buckets return sorted by epoch, so output
// is deterministic.
func (db *DB) QueryFleet(signal string, from, to uint64, res Resolution, qs []float64) ([]FleetPoint, Resolution) {
	tabs := db.carrying(signal)
	if !res.concrete() {
		held, covers := [3]bool{}, [3]bool{true, true, true}
		for _, t := range tabs {
			t.mu.Lock()
			h, c := t.reach(from)
			t.mu.Unlock()
			if !h[ResRaw] {
				continue
			}
			for lv := range held {
				held[lv] = held[lv] || h[lv]
				covers[lv] = covers[lv] && c[lv]
			}
		}
		res = autoLevel(held, covers)
	}
	var pts []epochMean
	for i, t := range tabs {
		pts = t.means(pts, signal, from, to, res)
		if i == 0 {
			// Loops carry about as many points each: size for all.
			pts = slices.Grow(pts, len(pts)*(len(tabs)-1))
		}
	}
	out := []FleetPoint{}
	for _, g := range bucket(pts, res.Factor()) {
		vals := g.means
		sort.Float64s(vals)
		fp := FleetPoint{Epoch: g.epoch, Loops: len(vals), Min: vals[0], Max: vals[len(vals)-1]}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		fp.Mean = sum / float64(len(vals))
		fp.Quantiles = make([]float64, len(qs))
		for i, q := range qs {
			fp.Quantiles[i] = quantileSorted(vals, q)
		}
		out = append(out, fp)
	}
	return out, res
}

// epochGroup is the means pooled at one epoch.
type epochGroup struct {
	epoch uint64
	means []float64
}

// bucket groups pts by epoch, in epoch order. Every epoch at a level
// is a multiple of its factor f, so when the epochs span no more than
// twice as many buckets as there are points, a counting sort over
// (epoch-lo)/f places them; a sparser span is sorted instead.
func bucket(pts []epochMean, f uint64) []epochGroup {
	if len(pts) == 0 {
		return nil
	}
	lo, hi := pts[0].epoch, pts[0].epoch
	for _, p := range pts {
		lo, hi = min(lo, p.epoch), max(hi, p.epoch)
	}
	vals := make([]float64, len(pts))
	var groups []epochGroup
	if span := (hi - lo) / f; span < 2*uint64(len(pts)) {
		end := make([]int, span+2) // end[b+1]: points in buckets <= b
		for _, p := range pts {
			end[(p.epoch-lo)/f+1]++
		}
		for b := 1; b < len(end); b++ {
			end[b] += end[b-1]
		}
		next := append([]int(nil), end[:span+1]...)
		for _, p := range pts {
			b := (p.epoch - lo) / f
			vals[next[b]] = p.mean
			next[b]++
		}
		for b := uint64(0); b <= span; b++ {
			if end[b] < end[b+1] {
				groups = append(groups, epochGroup{epoch: lo + b*f, means: vals[end[b]:end[b+1]]})
			}
		}
		return groups
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].epoch < pts[j].epoch })
	for i := 0; i < len(pts); {
		j := i
		for ; j < len(pts) && pts[j].epoch == pts[i].epoch; j++ {
			vals[j] = pts[j].mean
		}
		groups = append(groups, epochGroup{epoch: pts[i].epoch, means: vals[i:j]})
		i = j
	}
	return groups
}

// quantileSorted interpolates the q-quantile of a sorted sample set.
func quantileSorted(vals []float64, q float64) float64 {
	if len(vals) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + (vals[lo+1]-vals[lo])*frac
}
