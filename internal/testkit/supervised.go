package testkit

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"

	"mimoctl/internal/sim"
)

// NearTarget draws plausible telemetry within ±20% of the targets: a
// supervised loop's tracking-error alarm never trips on it.
func NearTarget(rng *rand.Rand, ips, pow float64) sim.Telemetry {
	tel := sim.Telemetry{IPS: ips * (0.8 + 0.4*rng.Float64()), PowerW: pow * (0.8 + 0.4*rng.Float64())}
	tel.TrueIPS, tel.TruePowerW = tel.IPS, tel.PowerW
	tel.L1MPKI, tel.L2MPKI = rng.Float64()*20, rng.Float64()*5
	return tel
}

// SupRecord encodes one record of a supervised-loop schedule
// (SupSchedule): op (its kind in the low 3 bits, its hold in the rest)
// and the two float64 operands.
func SupRecord(kind, hold byte, a, b float64) []byte {
	out := []byte{kind | hold<<3}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(a))
	return binary.LittleEndian.AppendUint64(out, math.Float64bits(b))
}

// SupSeeds are the seeds of the supervised-loop fuzzers, named for the
// supervisor path each reaches: the schedule (Data) and the seed of its
// telemetry draws.
var SupSeeds = []struct {
	Name string
	Data []byte
	Seed int64
}{
	{"one-epoch", []byte{0}, 1},
	{"mixed", []byte{5, 1, 2, 3, 4, 250, 9, 9, 9, 9, 17, 0, 0, 0, 0, 0, 0, 4, 1}, 42},
	{"raw-non-finite", append(
		binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(math.NaN())),
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))...), 7},
	// A dead IPS sensor for 249 epochs, then 2·249 healthy ones.
	{"dead-sensor-reengage", bytes.Join([][]byte{
		SupRecord(0, 31, 0, 0), SupRecord(7, 31, 0, 0), SupRecord(7, 31, 0, 0)}, nil), 2},
	// Nine failed applies in a row.
	{"apply-failures", SupRecord(4, 1, 0, 0), 3},
	// Plausible readings far above the targets, past the grace period.
	{"divergence", bytes.Join([][]byte{
		SupRecord(2, 31, 3.5, 10), SupRecord(2, 31, 3.5, 10)}, nil), 4},
	// IPS alternating far either side of target, past the grace period.
	{"innovation", bytes.Join([][]byte{
		SupRecord(6, 31, 0.6, 3.4), SupRecord(6, 31, 0.6, 3.4)}, nil), 5},
}

// SupEpoch is one epoch of a decoded schedule: the telemetry the loop
// steps on (Epoch and Config left to the caller), a target change to
// (IPS, Power) or a reset to make before the step, and whether the
// step's apply fails.
type SupEpoch struct {
	Tel        sim.Telemetry
	Retarget   bool
	IPS, Power float64
	Reset      bool
	ApplyFails bool
}

// SupSchedule decodes data into at most epochs epochs and calls step
// for each. Each 17-byte record is an op byte and two float64 bit
// patterns a, b; the op's low 3 bits pick what it does, and it holds
// for 1+8·(op>>3) epochs: 0 a NaN IPS sensor, 1 an infinite power
// reading, 2 raw (a, b) telemetry, 3 a target change to (a, b), 4 a
// failed apply, 5 a reset, 6 IPS alternating between a and b, 7
// telemetry near the targets. Target changes and resets act on the
// record's first epoch. The rest of each epoch's telemetry is drawn by
// NearTarget from seed around the loop's targets as targets reports
// them before the epoch's change.
func SupSchedule(data []byte, seed int64, epochs int, targets func() (float64, float64), step func(SupEpoch)) {
	rng := rand.New(rand.NewSource(seed))
	f64 := func(off int) float64 {
		var b [8]byte
		copy(b[:], data[min(off, len(data)):min(off+8, len(data))])
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	epoch := 0
	for off := 0; off < len(data) && epoch < epochs; off += 17 {
		op := data[off]
		a, b := f64(off+1), f64(off+9)
		for k := 0; k < 1+8*int(op>>3) && epoch < epochs; k, epoch = k+1, epoch+1 {
			ips, pow := targets()
			e := SupEpoch{Tel: NearTarget(rng, ips, pow)}
			switch op % 8 {
			case 0:
				e.Tel.IPS, e.Tel.PowerW = math.NaN(), rng.Float64()*20
			case 1:
				e.Tel.IPS, e.Tel.PowerW = rng.Float64()*4, math.Inf(1)
			case 2:
				e.Tel.IPS, e.Tel.PowerW = a, b // raw fuzz bit patterns
			case 3:
				e.Retarget, e.IPS, e.Power = k == 0, a, b
			case 4:
				e.ApplyFails = true
			case 5:
				e.Reset = k == 0
			case 6:
				e.Tel.IPS = a
				if k%2 == 1 {
					e.Tel.IPS = b
				}
			}
			step(e)
		}
	}
}
