package tsdb

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"mimoctl/internal/obs"
)

// The reference store: the per-(loop, signal) series store and its
// one-stream block codec, kept verbatim (renamed) as the oracle the
// differential tests hold the per-loop tables against. Every series
// keeps its own rings of byte-bounded blocks and encodes its own epoch
// stream, so each signal's retention depends on how well it
// compresses; the differentials compare the two stores over the epochs
// both retain, by math.Float64bits.

// refOptions sizes the store. The zero value selects the defaults.
type refOptions struct {
	// BlockBytes is the capacity of one block buffer (default 1024).
	// Blocks seal when the next worst-case sample might not fit, so the
	// sample count per block varies with compressibility.
	BlockBytes int
	// RawBlocks, MidBlocks, CoarseBlocks are the sealed-ring sizes per
	// level (defaults 8, 8, 8). Retention per level is whatever the ring
	// holds: with the defaults and a well-behaved signal the raw level
	// keeps tens of thousands of epochs and the 256x level over a
	// million.
	RawBlocks, MidBlocks, CoarseBlocks int
}

func (o refOptions) withDefaults() refOptions {
	if o.BlockBytes <= 0 {
		o.BlockBytes = 1024
	}
	// A block must hold at least its first (uncompressed) sample plus
	// one worst-case follow-up.
	if min := int(2 * refWorstSampleBits(refMaxCols) / 8); o.BlockBytes < min {
		o.BlockBytes = min
	}
	if o.RawBlocks <= 0 {
		o.RawBlocks = 8
	}
	if o.MidBlocks <= 0 {
		o.MidBlocks = 8
	}
	if o.CoarseBlocks <= 0 {
		o.CoarseBlocks = 8
	}
	return o
}

// refDB is the store: a registry of per-(loop, signal) series.
type refDB struct {
	opts refOptions

	mu     sync.RWMutex
	series map[Key]*refSeries
	keys   []Key // registration order, for deterministic iteration
}

// refNew builds an empty store.
func refNew(opts refOptions) *refDB {
	return &refDB{opts: opts.withDefaults(), series: make(map[Key]*refSeries)}
}

// seriesFor returns the series for (loop, signal), creating it — and
// preallocating its block rings — on first use.
func (db *refDB) seriesFor(loop, signal string) *refSeries {
	k := Key{Loop: loop, Signal: signal}
	db.mu.RLock()
	s := db.series[k]
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s = db.series[k]; s != nil {
		return s
	}
	s = refNewSeries(db.opts)
	db.series[k] = s
	db.keys = append(db.keys, k)
	return s
}

// Lookup returns the series for (loop, signal), nil when absent.
func (db *refDB) Lookup(loop, signal string) *refSeries {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[Key{Loop: loop, Signal: signal}]
}

// Keys returns every registered series key, sorted by loop then signal.
func (db *refDB) Keys() []Key {
	db.mu.RLock()
	out := append([]Key(nil), db.keys...)
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loop != out[j].Loop {
			return out[i].Loop < out[j].Loop
		}
		return out[i].Signal < out[j].Signal
	})
	return out
}

// EpochRange reports the epoch span the store still retains at raw
// resolution across every series: the oldest retained raw epoch and
// the newest appended one. ok is false for an empty store.
func (db *refDB) EpochRange() (from, to uint64, ok bool) {
	from = math.MaxUint64
	for _, k := range db.Keys() {
		s := db.Lookup(k.Loop, k.Signal)
		if s == nil {
			continue
		}
		if o, okO := s.OldestEpoch(ResRaw); okO && o < from {
			from = o
		}
		if l, okL := s.LastEpoch(); okL && l >= to {
			to = l
			ok = true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return from, to, true
}

// Query decodes the [from, to] epoch range (inclusive) of (loop,
// signal) at the given resolution, appending to dst and returning the
// extended slice together with the level actually used (meaningful for
// ResAuto). A missing series yields dst unchanged.
func (db *refDB) Query(dst []Point, loop, signal string, from, to uint64, res Resolution) ([]Point, Resolution) {
	s := db.Lookup(loop, signal)
	if s == nil {
		return dst, refResolveRes(res, 0, true)
	}
	return s.Query(dst, from, to, res)
}

// ---- series ----

// refAggState accumulates one open rollup window.
type refAggState struct {
	start         uint64
	open          bool
	min, max, sum float64
	count         uint64
}

func (a *refAggState) add(v float64) {
	if !isFinite(v) {
		return
	}
	if a.count == 0 {
		a.min, a.max, a.sum = v, v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
		a.sum += v
	}
	a.count++
}

// merge folds a flushed finer-level aggregate in.
func (a *refAggState) merge(min, max, sum float64, count uint64) {
	if count == 0 {
		return
	}
	if a.count == 0 {
		a.min, a.max, a.sum = min, max, sum
	} else {
		if min < a.min {
			a.min = min
		}
		if max > a.max {
			a.max = max
		}
		a.sum += sum
	}
	a.count += count
}

func (a *refAggState) reset(start uint64) {
	*a = refAggState{start: start, open: true, min: math.NaN(), max: math.NaN(), sum: math.NaN()}
}

// refSealedBlock is one immutable encoded block.
type refSealedBlock struct {
	data       []byte // full-capacity buffer, bits of it used
	count      int
	minT, maxT uint64
}

// refLevel is one resolution tier: an active encoder, a ring of sealed
// blocks, and a free list the ring recycles through.
type refLevel struct {
	cols   int
	factor uint64

	enc      refBlockEnc
	encMinT  uint64
	sealed   []refSealedBlock // ring storage, len == ring capacity
	start, n int              // ring window [start, start+n)
	free     [][]byte
}

func refNewLevel(cols int, factor uint64, ringCap, blockBytes int) refLevel {
	l := refLevel{cols: cols, factor: factor, sealed: make([]refSealedBlock, ringCap)}
	// Preallocate every buffer the level will ever use: 1 active +
	// ringCap sealed slots; recycling keeps the free list non-empty from
	// then on, so steady-state appends never allocate.
	l.free = make([][]byte, 0, ringCap+1)
	for i := 0; i < ringCap; i++ {
		l.free = append(l.free, make([]byte, blockBytes))
	}
	l.enc.reset(make([]byte, blockBytes), cols)
	return l
}

// appendSample encodes one sample, sealing and starting a new block
// when the active one fills.
func (l *refLevel) appendSample(t uint64, vals *[refMaxCols]float64) {
	if l.enc.count == 0 {
		l.encMinT = t
	}
	if l.enc.appendSample(t, vals) {
		return
	}
	l.seal()
	l.encMinT = t
	if !l.enc.appendSample(t, vals) {
		// Cannot happen: a fresh block always holds one sample.
		panic("tsdb: fresh block rejected a sample")
	}
}

// seal moves the active block into the ring (evicting and recycling
// the oldest when full) and re-arms the encoder from the free list.
func (l *refLevel) seal() {
	if l.enc.count == 0 {
		return
	}
	if l.n == len(l.sealed) {
		// Evict the oldest sealed block, recycling its buffer.
		l.free = append(l.free, l.sealed[l.start].data)
		l.sealed[l.start] = refSealedBlock{}
		l.start = (l.start + 1) % len(l.sealed)
		l.n--
	}
	slot := (l.start + l.n) % len(l.sealed)
	l.sealed[slot] = refSealedBlock{
		data:  l.enc.bs.data,
		count: l.enc.count,
		minT:  l.encMinT,
		maxT:  l.enc.lastT,
	}
	l.n++
	buf := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	l.enc.reset(buf, l.cols)
}

// oldest returns the earliest retained epoch (ok=false when empty).
func (l *refLevel) oldest() (uint64, bool) {
	if l.n > 0 {
		return l.sealed[l.start].minT, true
	}
	if l.enc.count > 0 {
		return l.encMinT, true
	}
	return 0, false
}

// refSeries is the history of one (loop, signal) pair.
type refSeries struct {
	mu     sync.Mutex
	levels [3]refLevel
	agg    [2]refAggState // open windows feeding levels 1 and 2
	lastT  uint64
	hasAny bool
}

func refNewSeries(opts refOptions) *refSeries {
	s := &refSeries{}
	s.levels[0] = refNewLevel(1, 1, opts.RawBlocks, opts.BlockBytes)
	s.levels[1] = refNewLevel(4, 16, opts.MidBlocks, opts.BlockBytes)
	s.levels[2] = refNewLevel(4, 256, opts.CoarseBlocks, opts.BlockBytes)
	return s
}

// Append records one raw sample and folds it into the open rollup
// windows. Epochs must be non-decreasing per series (the obs event
// stream guarantees it); violations are recorded as given but may
// decode slowly. Allocation-free.
func (s *refSeries) Append(epoch uint64, v float64) {
	s.mu.Lock()
	var vals [refMaxCols]float64
	vals[0] = v
	s.levels[0].appendSample(epoch, &vals)

	// Fold into the 16x window, cascading into 256x on flush.
	w := epoch &^ (levelFactors[1] - 1)
	if !s.agg[0].open {
		s.agg[0].reset(w)
	} else if s.agg[0].start != w {
		s.flushAgg(0)
		s.agg[0].reset(w)
	}
	s.agg[0].add(v)
	s.lastT = epoch
	s.hasAny = true
	s.mu.Unlock()
}

// flushAgg writes the open window of agg[i] into level i+1 and, for
// the mid level, merges it into the open coarse window.
func (s *refSeries) flushAgg(i int) {
	a := &s.agg[i]
	if !a.open {
		return
	}
	var vals [refMaxCols]float64
	vals[0], vals[1], vals[2], vals[3] = a.min, a.max, a.sum, float64(a.count)
	s.levels[i+1].appendSample(a.start, &vals)
	if i == 0 {
		w := a.start &^ (levelFactors[2] - 1)
		if !s.agg[1].open {
			s.agg[1].reset(w)
		} else if s.agg[1].start != w {
			s.flushAgg(1)
			s.agg[1].reset(w)
		}
		s.agg[1].merge(a.min, a.max, a.sum, a.count)
	}
	a.open = false
}

// Sync flushes the open rollup windows into their levels so queries at
// mid/coarse resolution see history up to the last appended epoch.
// Windows normally flush when the next one opens; Sync is for
// end-of-run snapshots (baseline capture, goldens).
func (s *refSeries) Sync() {
	s.mu.Lock()
	s.flushAgg(0)
	s.flushAgg(1)
	s.mu.Unlock()
}

// OldestEpoch returns the earliest epoch retained at res (ok=false for
// an empty level).
func (s *refSeries) OldestEpoch(res Resolution) (uint64, bool) {
	if res < ResRaw || res > ResCoarse {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.levels[res].oldest()
}

// LastEpoch returns the most recent appended epoch (ok=false when the
// series is empty).
func (s *refSeries) LastEpoch() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastT, s.hasAny
}

// refResolveRes maps ResAuto to a concrete level given the oldest-covered
// check result; concrete resolutions pass through.
func refResolveRes(res Resolution, picked Resolution, empty bool) Resolution {
	if res >= ResRaw && res <= ResCoarse {
		return res
	}
	if empty {
		return ResRaw
	}
	return picked
}

// Query appends the [from, to] range (inclusive) at res to dst. With
// ResAuto it picks the finest level whose retention still covers from
// (falling back to the coarsest non-empty level). The returned
// resolution is the level used.
func (s *refSeries) Query(dst []Point, from, to uint64, res Resolution) ([]Point, Resolution) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lv := res
	if lv < ResRaw || lv > ResCoarse {
		lv = ResCoarse
		for cand := ResRaw; cand <= ResCoarse; cand++ {
			if oldest, ok := s.levels[cand].oldest(); ok && oldest <= from {
				lv = cand
				break
			}
		}
	}
	l := &s.levels[lv]
	collect := func(t uint64, vals *[refMaxCols]float64) {
		if t < from || t > to {
			return
		}
		if lv == ResRaw {
			v := vals[0]
			dst = append(dst, Point{Epoch: t, Min: v, Max: v, Mean: v, Count: 1})
			return
		}
		count := uint64(vals[3])
		mean := math.NaN()
		if count > 0 {
			mean = vals[2] / float64(count)
		}
		dst = append(dst, Point{Epoch: t, Min: vals[0], Max: vals[1], Mean: mean, Count: count})
	}
	for i := 0; i < l.n; i++ {
		b := &l.sealed[(l.start+i)%len(l.sealed)]
		if b.maxT < from || b.minT > to {
			continue
		}
		refDecodeBlock(b.data, b.count, l.cols, collect)
	}
	if l.enc.count > 0 && l.enc.lastT >= from && l.encMinT <= to {
		refDecodeBlock(l.enc.bs.data, l.enc.count, l.cols, collect)
	}
	return dst, lv
}

// QueryFleet aggregates one signal across every loop carrying it:
// per-loop points in [from, to] at res are bucketed by epoch, and each
// bucket reports the min/max/mean and the requested quantiles of the
// per-loop mean values. Loops are visited in sorted order and buckets
// return sorted, so output is deterministic.
func (db *refDB) QueryFleet(signal string, from, to uint64, res Resolution, qs []float64) ([]FleetPoint, Resolution) {
	keys := db.Keys()
	used := refResolveRes(res, ResRaw, true)
	buckets := make(map[uint64][]float64)
	var epochs []uint64
	var scratch []Point
	first := true
	for _, k := range keys {
		if k.Signal != signal {
			continue
		}
		s := db.Lookup(k.Loop, k.Signal)
		if s == nil {
			continue
		}
		scratch = scratch[:0]
		var lv Resolution
		scratch, lv = s.Query(scratch, from, to, res)
		if first {
			used, first = lv, false
		}
		for _, p := range scratch {
			if p.Count == 0 || !isFinite(p.Mean) {
				continue
			}
			if _, ok := buckets[p.Epoch]; !ok {
				epochs = append(epochs, p.Epoch)
			}
			buckets[p.Epoch] = append(buckets[p.Epoch], p.Mean)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	out := make([]FleetPoint, 0, len(epochs))
	for _, e := range epochs {
		vals := buckets[e]
		sort.Float64s(vals)
		fp := FleetPoint{Epoch: e, Loops: len(vals), Min: vals[0], Max: vals[len(vals)-1]}
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
	return out, used
}

// refMaxCols is the widest sample the codec carries (rollup aggregates).
const refMaxCols = 4

// refWorstSampleBits bounds one encoded sample: a full 4+64-bit
// delta-of-delta escape plus, per column, the 2-bit control prefix, the
// 5-bit leading-zero count, the 6-bit width field, and 64 meaningful
// bits.
func refWorstSampleBits(cols int) uint64 { return 68 + uint64(cols)*77 }

// refBstream is a bit-granular cursor over a fixed-capacity byte slice.
// The writer ORs bits in, so buffers must arrive zeroed (reset clears
// recycled ones).
type refBstream struct {
	data []byte
	pos  uint64 // bits written (writer) or read (reader)
}

func (b *refBstream) writeBit(bit uint64) {
	if bit != 0 {
		b.data[b.pos>>3] |= 1 << (7 - b.pos&7)
	}
	b.pos++
}

// writeBits writes the low n bits of v, most significant first,
// filling whole bytes at a time.
func (b *refBstream) writeBits(v uint64, n uint) {
	for n > 0 {
		free := 8 - uint(b.pos&7)
		take := n
		if take > free {
			take = free
		}
		chunk := byte(v>>(n-take)) & byte(1<<take-1)
		b.data[b.pos>>3] |= chunk << (free - take)
		b.pos += uint64(take)
		n -= take
	}
}

func (b *refBstream) readBit() uint64 {
	bit := uint64(b.data[b.pos>>3]>>(7-b.pos&7)) & 1
	b.pos++
	return bit
}

// readBits reads n bits, most significant first, draining whole bytes
// at a time.
func (b *refBstream) readBits(n uint) uint64 {
	v := uint64(0)
	for n > 0 {
		avail := 8 - uint(b.pos&7)
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(b.data[b.pos>>3]>>(avail-take)) & (uint64(1)<<take - 1)
		v = v<<take | chunk
		b.pos += uint64(take)
		n -= take
	}
	return v
}

// refColEnc is one value column's XOR chain state.
type refColEnc struct {
	lastBits          uint64
	leading, trailing uint8
}

// refBlockEnc encodes samples into a fixed-capacity buffer.
type refBlockEnc struct {
	bs    refBstream
	cols  int
	count int

	firstT, lastT uint64
	lastDelta     int64

	col [refMaxCols]refColEnc
}

// reset re-arms the encoder over buf (zeroing it — the writer ORs bits
// in) for a new block.
func (e *refBlockEnc) reset(buf []byte, cols int) {
	for i := range buf {
		buf[i] = 0
	}
	e.bs = refBstream{data: buf}
	e.cols = cols
	e.count = 0
	e.firstT, e.lastT, e.lastDelta = 0, 0, 0
	for i := range e.col {
		e.col[i] = refColEnc{}
	}
}

// room reports whether one worst-case sample is guaranteed to fit.
func (e *refBlockEnc) room() bool {
	return e.bs.pos+refWorstSampleBits(e.cols) <= uint64(len(e.bs.data))*8
}

// appendSample encodes one sample; vals[:e.cols] are the value columns.
// It reports false — leaving the block untouched — when the block is
// full.
func (e *refBlockEnc) appendSample(t uint64, vals *[refMaxCols]float64) bool {
	if !e.room() {
		return false
	}
	if e.count == 0 {
		e.firstT = t
		e.bs.writeBits(t, 64)
		for c := 0; c < e.cols; c++ {
			bits := math.Float64bits(vals[c])
			e.bs.writeBits(bits, 64)
			e.col[c].lastBits = bits
			// Sentinel widths force the first XOR to re-emit a window.
			e.col[c].leading, e.col[c].trailing = 0xff, 0xff
		}
		e.lastT = t
		e.count = 1
		return true
	}
	delta := int64(t - e.lastT)
	dod := delta - e.lastDelta
	switch {
	case dod == 0:
		e.bs.writeBit(0)
	case dod >= -63 && dod <= 64:
		e.bs.writeBits(0b10, 2)
		e.bs.writeBits(uint64(dod+63), 7)
	case dod >= -255 && dod <= 256:
		e.bs.writeBits(0b110, 3)
		e.bs.writeBits(uint64(dod+255), 9)
	case dod >= -2047 && dod <= 2048:
		e.bs.writeBits(0b1110, 4)
		e.bs.writeBits(uint64(dod+2047), 12)
	default:
		e.bs.writeBits(0b1111, 4)
		e.bs.writeBits(uint64(dod), 64)
	}
	e.lastT, e.lastDelta = t, delta
	for c := 0; c < e.cols; c++ {
		e.appendXOR(&e.col[c], math.Float64bits(vals[c]))
	}
	e.count++
	return true
}

// appendXOR writes one value into a column's XOR chain.
func (e *refBlockEnc) appendXOR(col *refColEnc, vbits uint64) {
	xor := vbits ^ col.lastBits
	col.lastBits = vbits
	if xor == 0 {
		e.bs.writeBit(0)
		return
	}
	e.bs.writeBit(1)
	leading := uint8(bits.LeadingZeros64(xor))
	trailing := uint8(bits.TrailingZeros64(xor))
	// The leading-zero field is 5 bits, so clamp to 31.
	if leading > 31 {
		leading = 31
	}
	if col.leading != 0xff && leading >= col.leading && trailing >= col.trailing {
		// Fits the previous meaningful window: reuse it.
		e.bs.writeBit(0)
		e.bs.writeBits(xor>>col.trailing, uint(64-col.leading-col.trailing))
		return
	}
	col.leading, col.trailing = leading, trailing
	mbits := 64 - leading - trailing
	e.bs.writeBit(1)
	e.bs.writeBits(uint64(leading), 5)
	// mbits is in [1, 64]; store mbits-1 so 64 fits the 6-bit field.
	e.bs.writeBits(uint64(mbits-1), 6)
	e.bs.writeBits(xor>>trailing, uint(mbits))
}

// refDecodeBlock replays count samples of cols columns from data, calling
// fn for each. The caller guarantees (data, count, cols) came from a
// matching blockEnc; decode state is local, so concurrent decodes of
// the same sealed block are safe.
func refDecodeBlock(data []byte, count, cols int, fn func(t uint64, vals *[refMaxCols]float64)) {
	if count == 0 {
		return
	}
	bs := refBstream{data: data}
	var col [refMaxCols]refColEnc
	var vals [refMaxCols]float64
	t := bs.readBits(64)
	for c := 0; c < cols; c++ {
		col[c].lastBits = bs.readBits(64)
		col[c].leading, col[c].trailing = 0xff, 0xff
		vals[c] = math.Float64frombits(col[c].lastBits)
	}
	fn(t, &vals)
	delta := int64(0)
	for i := 1; i < count; i++ {
		var dod int64
		switch {
		case bs.readBit() == 0:
			dod = 0
		case bs.readBit() == 0:
			dod = int64(bs.readBits(7)) - 63
		case bs.readBit() == 0:
			dod = int64(bs.readBits(9)) - 255
		case bs.readBit() == 0:
			dod = int64(bs.readBits(12)) - 2047
		default:
			dod = int64(bs.readBits(64))
		}
		delta += dod
		t += uint64(delta)
		for c := 0; c < cols; c++ {
			vals[c] = math.Float64frombits(refReadXOR(&bs, &col[c]))
		}
		fn(t, &vals)
	}
}

// refReadXOR reads one value of a column's XOR chain.
func refReadXOR(bs *refBstream, col *refColEnc) uint64 {
	if bs.readBit() == 0 {
		return col.lastBits
	}
	if bs.readBit() == 1 {
		col.leading = uint8(bs.readBits(5))
		col.trailing = 64 - col.leading - uint8(bs.readBits(6)) - 1
	}
	mbits := uint(64 - col.leading - col.trailing)
	xor := bs.readBits(mbits) << col.trailing
	col.lastBits ^= xor
	return col.lastBits
}

// refRecorder is the per-series recorder: each event is appended to
// its loop's 11 series, one Series.Append per signal.
type refRecorder struct {
	db    *refDB
	loops map[uint32]*[nSignals]*refSeries
}

func newRefRecorder(db *refDB) *refRecorder {
	return &refRecorder{db: db, loops: make(map[uint32]*[nSignals]*refSeries)}
}

func (r *refRecorder) WriteEvents(batch []obs.Event) error {
	for i := range batch {
		ev := &batch[i]
		ls := r.loops[ev.LoopID]
		if ls == nil {
			ls = new([nSignals]*refSeries)
			for j, sig := range Signals {
				ls[j] = r.db.seriesFor("loop-"+itoa(uint64(ev.LoopID)), sig)
			}
			r.loops[ev.LoopID] = ls
		}
		ls[0].Append(ev.Epoch, ev.IPS)
		ls[1].Append(ev.Epoch, ev.PowerW)
		ls[2].Append(ev.Epoch, ev.IPSTarget)
		ls[3].Append(ev.Epoch, ev.PowerTarget)
		ls[4].Append(ev.Epoch, ev.InnovNorm)
		ls[5].Append(ev.Epoch, ev.Guardband)
		ls[6].Append(ev.Epoch, float64(ev.Mode))
		ls[7].Append(ev.Epoch, float64(ev.ReqFreq))
		ls[8].Append(ev.Epoch, float64(ev.ReqCache))
		ls[9].Append(ev.Epoch, float64(ev.ReqROB))
		ls[10].Append(ev.Epoch, obs.TrackErr(ev))
	}
	return nil
}

func (r *refRecorder) Sync() {
	for _, k := range r.db.Keys() {
		r.db.Lookup(k.Loop, k.Signal).Sync()
	}
}
