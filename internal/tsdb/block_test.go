package tsdb

import (
	"encoding/binary"
	"math"
	"testing"
)

// widestBlock is the widest block the store writes: a rollup row of
// every recorded signal.
const widestBlock = rollupCols * nSignals

// checkDecode decodes rows rows of the epoch column and every value
// column of a block (through col), failing on any bit-level mismatch
// with ts and vals.
func checkDecode(t *testing.T, rows int, col func(int) colView, ts []uint64, vals [][]float64) {
	t.Helper()
	if rows != len(ts) {
		t.Fatalf("block holds %d rows, want %d", rows, len(ts))
	}
	td := newTimeDec(col(0))
	for i := range ts {
		if got := td.next(); got != ts[i] {
			t.Fatalf("row %d: epoch %d, want %d", i, got, ts[i])
		}
	}
	for c := range vals {
		xd := newXORDec(col(1 + c))
		for i := range ts {
			got, want := math.Float64bits(xd.next()), math.Float64bits(vals[c][i])
			if got != want {
				t.Fatalf("row %d col %d: bits %#x, want %#x", i, c, got, want)
			}
		}
	}
}

// roundTrip encodes the rows (vals[c][i] is column c of row i) into
// one block and decodes them back, both while the block is open and
// after it is sealed.
func roundTrip(t *testing.T, ts []uint64, vals [][]float64) {
	t.Helper()
	w := newWriter(len(vals))
	row := make([]float64, len(vals))
	for i := range ts {
		for c := range vals {
			row[c] = vals[c][i]
		}
		w.append(ts[i], row)
	}
	checkDecode(t, w.rows, w.col, ts, vals)
	var b block
	w.seal(&b)
	checkDecode(t, b.rows, b.col, ts, vals)
}

func TestBlockRoundTripSteady(t *testing.T) {
	// The common case: once-per-epoch cadence, slowly-varying floats.
	n := 500
	ts := make([]uint64, n)
	vals := [][]float64{make([]float64, n)}
	v := 1.0
	for i := range ts {
		ts[i] = uint64(100 + i)
		v += 0.001 * float64(i%7)
		vals[0][i] = v
	}
	roundTrip(t, ts, vals)
}

func TestBlockRoundTripSentinels(t *testing.T) {
	// NaN/Inf sentinels and bit-pattern extremes must survive exactly.
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8000000000001), // quiet NaN payload
	}
	ts := make([]uint64, len(specials))
	for i := range ts {
		ts[i] = uint64(i)
	}
	roundTrip(t, ts, [][]float64{specials})
}

func TestBlockRoundTripMultiColumn(t *testing.T) {
	// A rollup row of every signal: constant, ramping and noisy columns
	// side by side, each its own stream.
	n := 200
	ts := make([]uint64, n)
	vals := make([][]float64, widestBlock)
	for c := range vals {
		vals[c] = make([]float64, n)
	}
	for i := range ts {
		ts[i] = uint64(i * 16)
		for c := range vals {
			switch c % 4 {
			case 0:
				vals[c][i] = float64(i) * float64(c+1)
			case 1:
				vals[c][i] = math.Sin(float64(i*c)) * 1e3
			case 2:
				vals[c][i] = float64(i) * 3.5
			default:
				vals[c][i] = 16
			}
		}
	}
	roundTrip(t, ts, vals)
}

func TestBlockRoundTripDeltaBuckets(t *testing.T) {
	// Exercise every delta-of-delta bucket including the 64-bit escape
	// and negative deltas-of-deltas at the bucket edges.
	deltas := []int64{1, 1, 1, 2, 65, -62, 257, -254, 2049, -2046, 100000, 1}
	ts := make([]uint64, len(deltas)+1)
	ts[0] = 1 << 40
	cur := ts[0]
	for i, d := range deltas {
		cur += uint64(d + 1000) // keep epochs increasing
		ts[i+1] = cur
	}
	vals := [][]float64{make([]float64, len(ts))}
	for i := range ts {
		vals[0][i] = float64(i)
	}
	roundTrip(t, ts, vals)
}

// TestBlockSealsWhenFull pins a level's block boundaries: a block is
// full once a row falls past the fixed run of epochs it covers, the
// ring then evicts whole blocks, and a recycled block decodes as
// freshly as the first.
func TestBlockSealsWhenFull(t *testing.T) {
	const span = 16
	l := newLevel(1, span, 2*span) // two sealed blocks of 16 epochs
	v := []float64{0}
	for e := uint64(0); e < 5*span; e++ {
		v[0] = math.Float64frombits(0x5555555555555555 ^ e<<1)
		l.append(e, v)
		if got, want := l.open.rows, int(e%span)+1; got != want {
			t.Fatalf("epoch %d: open block holds %d rows, want %d", e, got, want)
		}
	}
	if l.n != 2 {
		t.Fatalf("ring holds %d sealed blocks, want 2", l.n)
	}
	if oldest, _ := l.oldest(); oldest != 2*span {
		t.Fatalf("oldest retained epoch %d, want %d", oldest, 2*span)
	}
	// A gap jumps straight past the open block's run.
	l.append(1000, v)
	if l.open.rows != 1 || l.open.minT != 1000 || l.end != 1008 {
		t.Fatalf("after a gap: open block rows %d from %d ending %d", l.open.rows, l.open.minT, l.end)
	}
	var epochs, words []uint64
	l.scan(0, math.MaxUint64, func(rows int, src colSource) {
		d := newRowDec(src, 0, 1)
		var vals [rollupCols]float64
		for r := 0; r < rows; r++ {
			epochs = append(epochs, d.next(&vals))
			words = append(words, math.Float64bits(vals[0]))
		}
	})
	if len(epochs) != 2*span+1 {
		t.Fatalf("decoded %d rows, want %d", len(epochs), 2*span+1)
	}
	for i := 0; i < 2*span; i++ {
		e := uint64(3*span + i)
		if epochs[i] != e || words[i] != 0x5555555555555555^e<<1 {
			t.Fatalf("row %d: epoch %d bits %#x", i, epochs[i], words[i])
		}
	}
}

// FuzzBlockRoundTrip asserts the word-at-a-time codec round-trips any
// block the store can write Float64bits-identically: 1 to widestBlock
// value columns, arbitrary epoch gaps (repeats, escapes and wraps
// included) and arbitrary value words, NaN payloads and infinities
// among them — the codec must treat values as opaque bits. Every block
// is checked open and sealed, and the third block reuses the first's
// buffers.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint8(1), []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(1<<40), uint64(1<<20), uint8(4), []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0xff, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(5), uint64(0), uint8(widestBlock-1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 0x80})
	f.Fuzz(func(t *testing.T, t0, gapSeed uint64, cols uint8, words []byte) {
		nc := int(cols)%widestBlock + 1
		const rows = 48
		w := newWriter(nc)
		row := make([]float64, nc)
		var b block
		for pass := 0; pass < 3; pass++ {
			ts := make([]uint64, rows)
			vals := make([][]float64, nc)
			for c := range vals {
				vals[c] = make([]float64, rows)
			}
			cur := t0 + uint64(pass)
			seed := gapSeed ^ uint64(pass)
			for i := 0; i < rows; i++ {
				ts[i] = cur
				// Gaps mostly small, sometimes zero or huge (and wrapping).
				seed = seed*6364136223846793005 + 1442695040888963407
				switch seed >> 61 {
				case 0:
					cur += seed
				case 1:
				default:
					cur += seed>>44 + 1
				}
				for c := 0; c < nc; c++ {
					// Values come from the fuzzer's words, cycled per
					// column; runs of repeats and small flips arise from
					// the input itself.
					k := (i*nc + c) * 8
					var word uint64
					if len(words) >= 8 {
						k %= len(words) - 7
						word = binary.BigEndian.Uint64(words[k : k+8])
					}
					if seed>>58&3 == 0 {
						word ^= uint64(i) << (c % 64)
					}
					vals[c][i] = math.Float64frombits(word)
				}
			}
			for i := range ts {
				for c := range vals {
					row[c] = vals[c][i]
				}
				w.append(ts[i], row)
			}
			checkDecode(t, w.rows, w.col, ts, vals)
			w.seal(&b)
			checkDecode(t, b.rows, b.col, ts, vals)
		}
	})
}
