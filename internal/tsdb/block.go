package tsdb

import (
	"math"
	"math/bits"
)

// The block codec is the Gorilla design (Pelkonen et al., VLDB 2015)
// over epoch counters instead of wall timestamps: epochs compress with
// delta-of-delta bucketing (a steady once-per-epoch table costs one
// bit per row) and values with XOR float compression operating on
// Float64bits — NaN and Inf telemetry sentinels round-trip bit-exactly
// because the codec never interprets the payload (FuzzBlockRoundTrip
// holds this under arbitrary inputs).
//
// A block is a set of column streams over the same rows: column 0
// carries the row epochs, and every value column its own XOR chain.
// The timestamp is paid once per row, however many signals the row
// carries, and a query that wants one signal decodes only the epoch
// column and that signal's columns. Each column is its own bit stream,
// written a 64-bit word at a time into a growable word slice; sealed
// blocks hand their slices back for reuse with their capacity, so a
// level in steady state appends without allocating.

// stream is one column's bit stream: the whole words written so far
// plus the partial word being filled, most significant bit first. A
// value column's stream also carries its XOR-chain state, so writing a
// value touches one struct.
type stream struct {
	words []uint64
	acc   uint64 // pending bits, left-aligned
	last  uint64 // a value column's previous Float64bits

	n           uint8 // bits pending in acc, 0..63
	lead, trail uint8 // a value column's meaningful window
}

// reset re-arms the stream over buf's storage.
func (s *stream) reset(buf []uint64) {
	*s = stream{words: buf[:0]}
}

// write appends the low n bits of v (1 <= n <= 64; v must be zero
// above them), most significant first.
func (s *stream) write(v uint64, n uint) {
	free := 64 - uint(s.n)
	if n < free {
		s.acc |= v << (free - n)
		s.n += uint8(n)
		return
	}
	rest := n - free
	s.words = append(s.words, s.acc|v>>rest)
	// rest == 0 shifts by 64, which Go defines as 0.
	s.acc, s.n = v<<(64-rest), uint8(rest)
}

// seal flushes the partial word and returns the complete stream.
func (s *stream) seal() []uint64 {
	if s.n > 0 {
		s.words = append(s.words, s.acc)
		s.acc, s.n = 0, 0
	}
	return s.words
}

// timeEnc is the epoch column's delta-of-delta state.
type timeEnc struct {
	last  uint64
	delta int64
}

// putTime writes a row epoch after the block's first, which is stored
// verbatim.
func (s *stream) putTime(e *timeEnc, t uint64) {
	delta := int64(t - e.last)
	dod := delta - e.delta
	switch {
	case dod == 0:
		s.write(0, 1)
	case dod >= -63 && dod <= 64:
		s.write(0b10<<7|uint64(dod+63), 9)
	case dod >= -255 && dod <= 256:
		s.write(0b110<<9|uint64(dod+255), 12)
	case dod >= -2047 && dod <= 2048:
		s.write(0b1110<<12|uint64(dod+2047), 16)
	default:
		s.write(0b1111, 4)
		s.write(uint64(dod), 64)
	}
	e.last, e.delta = t, delta
}

// putFirst writes a value column's first row verbatim.
func (s *stream) putFirst(v uint64) {
	s.write(v, 64)
	// Sentinel widths force the first XOR to emit a window.
	s.last, s.lead, s.trail = v, 0xff, 0xff
}

// putValue writes one value's Float64bits into the column's XOR chain.
func (s *stream) putValue(v uint64) {
	xor := v ^ s.last
	s.last = v
	if xor == 0 {
		s.write(0, 1)
		return
	}
	lead := uint8(bits.LeadingZeros64(xor))
	trail := uint8(bits.TrailingZeros64(xor))
	// The leading-zero field is 5 bits, so clamp to 31.
	if lead > 31 {
		lead = 31
	}
	if s.lead != 0xff && lead >= s.lead && trail >= s.trail {
		// Fits the previous meaningful window: control bits 10, then
		// the window.
		w := uint(64 - s.lead - s.trail)
		if w <= 62 {
			s.write(0b10<<w|xor>>s.trail, w+2)
		} else {
			s.write(0b10, 2)
			s.write(xor>>s.trail, w)
		}
		return
	}
	// A new window: control bits 11, 5 bits of leading zeros, 6 bits
	// of width-1 (so 64 fits), then the window.
	s.lead, s.trail = lead, trail
	w := uint(64 - lead - trail)
	hdr := uint64(0b11)<<11 | uint64(lead)<<6 | uint64(w-1)
	if w <= 51 {
		s.write(hdr<<w|xor>>trail, w+13)
	} else {
		s.write(hdr, 13)
		s.write(xor>>trail, w)
	}
}

// reader walks a stream's bits, most significant first. tail stands in
// for the words past the end: the partial word of a block still being
// written.
type reader struct {
	words []uint64
	tail  uint64
	i     int
	cur   uint64 // unread bits of the current word, left-aligned
	left  uint   // how many bits of cur are unread
}

func newReader(c colView) reader {
	return reader{words: c.words, tail: c.tail}
}

func (r *reader) next() uint64 {
	w := r.tail
	if r.i < len(r.words) {
		w = r.words[r.i]
	}
	r.i++
	return w
}

// bits reads n bits (1 <= n <= 64).
func (r *reader) bits(n uint) uint64 {
	if n <= r.left {
		v := r.cur >> (64 - n)
		r.cur <<= n
		r.left -= n
		return v
	}
	// Shifts by 64 yield 0 in Go, so an empty cur contributes nothing.
	hi := r.cur >> (64 - r.left)
	need := n - r.left
	r.cur = r.next()
	lo := r.cur >> (64 - need)
	r.cur <<= need
	r.left = 64 - need
	return hi<<need | lo
}

// timeDec replays an epoch column.
type timeDec struct {
	r     reader
	t     uint64
	delta int64
	first bool
}

func newTimeDec(c colView) timeDec {
	return timeDec{r: newReader(c), first: true}
}

func (d *timeDec) next() uint64 {
	if d.first {
		d.first = false
		d.t = d.r.bits(64)
		return d.t
	}
	var dod int64
	switch {
	case d.r.bits(1) == 0:
	case d.r.bits(1) == 0:
		dod = int64(d.r.bits(7)) - 63
	case d.r.bits(1) == 0:
		dod = int64(d.r.bits(9)) - 255
	case d.r.bits(1) == 0:
		dod = int64(d.r.bits(12)) - 2047
	default:
		dod = int64(d.r.bits(64))
	}
	d.delta += dod
	d.t += uint64(d.delta)
	return d.t
}

// xorDec replays one value column.
type xorDec struct {
	r           reader
	last        uint64
	lead, trail uint8
	first       bool
}

func newXORDec(c colView) xorDec {
	return xorDec{r: newReader(c), first: true}
}

func (d *xorDec) next() float64 {
	if d.first {
		d.first = false
		d.last = d.r.bits(64)
		return math.Float64frombits(d.last)
	}
	if d.r.bits(1) == 0 {
		return math.Float64frombits(d.last)
	}
	if d.r.bits(1) == 1 {
		d.lead = uint8(d.r.bits(5))
		d.trail = 64 - d.lead - uint8(d.r.bits(6)) - 1
	}
	d.last ^= d.r.bits(uint(64-d.lead-d.trail)) << d.trail
	return math.Float64frombits(d.last)
}

// colView is one column stream as a reader sees it: a sealed block's
// words, or an open block's words plus its partial word.
type colView struct {
	words []uint64
	tail  uint64
}

// colSource is a block, sealed or open, as a reader sees it.
type colSource interface {
	col(c int) colView
}

// block is one sealed block: its rows' epoch range and column streams
// (cols[0] the epochs, cols[1:] the values).
type block struct {
	rows       int
	minT, maxT uint64
	cols       [][]uint64
}

func (b *block) col(c int) colView { return colView{words: b.cols[c]} }

// writer encodes rows into the column streams of one open block.
type writer struct {
	rows       int
	minT, maxT uint64
	time       timeEnc
	cols       []stream // [0] epochs, [1:] values
}

func newWriter(valueCols int) writer {
	return writer{cols: make([]stream, valueCols+1)}
}

func (w *writer) col(c int) colView { return colView{words: w.cols[c].words, tail: w.cols[c].acc} }

// append encodes one row; vals[c] is value column c.
func (w *writer) append(t uint64, vals []float64) {
	cols := w.cols[1:]
	vals = vals[:len(cols)]
	if w.rows == 0 {
		w.minT, w.maxT = t, t
		w.cols[0].write(t, 64)
		w.time = timeEnc{last: t}
		for c, v := range vals {
			cols[c].putFirst(math.Float64bits(v))
		}
		w.rows = 1
		return
	}
	if t < w.minT {
		w.minT = t
	}
	if t > w.maxT {
		w.maxT = t
	}
	w.cols[0].putTime(&w.time, t)
	for c, v := range vals {
		cols[c].putValue(math.Float64bits(v))
	}
	w.rows++
}

// seal moves the open block's streams into b and re-arms the writer
// over b's previous buffers, which keep their capacity. A recycled
// buffer too small for a block like the one just sealed, with an
// eighth to spare, is replaced by one with a quarter to spare, so once
// every buffer of the ring has been through a seal a stationary signal
// appends without growing a buffer.
func (w *writer) seal(b *block) {
	if b.cols == nil {
		b.cols = make([][]uint64, len(w.cols))
	}
	b.rows, b.minT, b.maxT = w.rows, w.minT, w.maxT
	for c := range w.cols {
		recycled := b.cols[c]
		sealed := w.cols[c].seal()
		b.cols[c] = sealed
		if n := len(sealed); cap(recycled) < n+n/8 {
			recycled = make([]uint64, 0, n+n/4+8)
		}
		w.cols[c].reset(recycled)
	}
	w.rows = 0
}

// rollupCols is the widest run of value columns one signal occupies:
// a rollup row's min, max, sum and count.
const rollupCols = 4

// rowDec replays a block's epoch column together with a run of up to
// rollupCols value columns. Decode state is local, so concurrent
// decodes of one sealed block are safe.
type rowDec struct {
	time timeDec
	vals [rollupCols]xorDec
	n    int
}

// newRowDec decodes the n value columns from first on (value column c
// is stream 1+c; stream 0 holds the epochs).
func newRowDec(src colSource, first, n int) rowDec {
	d := rowDec{time: newTimeDec(src.col(0)), n: n}
	for i := 0; i < n; i++ {
		d.vals[i] = newXORDec(src.col(1 + first + i))
	}
	return d
}

// next decodes one row into vals[:n] and returns its epoch.
func (d *rowDec) next(vals *[rollupCols]float64) uint64 {
	t := d.time.next()
	for i := 0; i < d.n; i++ {
		vals[i] = d.vals[i].next()
	}
	return t
}
