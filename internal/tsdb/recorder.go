package tsdb

import (
	"mimoctl/internal/obs"
)

// Signals recorded per loop from the obs.Event, in recording order.
// track_err is derived at ingest with obs.TrackErr, the worst-channel
// relative tracking error the SLO engine and the drift detector score,
// so history queries need no join against targets. Infinities stay
// visible at raw resolution and are excluded from rollup aggregates like
// every other non-finite sample.
var Signals = []string{
	"ips", "power_w", "ips_target", "power_target",
	"innov_norm", "guardband", "mode",
	"req_freq", "req_cache", "req_rob",
	"track_err",
}

const nSignals = 11

// Recorder adapts the event bus to the store: it implements obs.Sink,
// so attaching it to obs.NewBus taps the existing pump goroutine as a
// fanout sink — ingestion costs the supervised hot path nothing (the
// publish side is unchanged). Each event becomes one row of its loop's
// table. WriteEvents is called only from that single pump goroutine, so
// the recorder's own state needs no lock; each loop's table is locked
// once per drained batch against concurrent queries.
//
// Steady state the ingest path performs zero heap allocations
// (TestRecorderWriteEventsAllocFree): a loop's table is built on first
// sight of the loop, and sealed blocks hand their buffers to the next
// open block.
type Recorder struct {
	db    *DB
	names obs.NameFunc
	loops []*loopRows // indexed by LoopID, the fleet's dense registration index

	// Per-batch grouping scratch: the loops the batch touches, and the
	// batch's event indexes ordered by loop.
	touched []*loopRows
	order   []int32

	det *Detector
}

// loopRows is one loop's table plus its share of the batch being
// written.
type loopRows struct {
	t      *Table
	off, n int
}

// NewRecorder builds a bus sink feeding db. names resolves loop ids to
// registered names (nil renders numeric ids, matching the text sinks).
func NewRecorder(db *DB, names obs.NameFunc) *Recorder {
	return &Recorder{db: db, names: names}
}

// SetDetector attaches a baseline-drift detector that is advanced on
// the pump goroutine as events are ingested (nil detaches).
func (r *Recorder) SetDetector(d *Detector) { r.det = d }

// WriteEvents implements obs.Sink. It groups the batch by loop (a
// stable counting sort over the event indexes), then appends each
// loop's rows under one lock of its table.
func (r *Recorder) WriteEvents(batch []obs.Event) error {
	if len(batch) == 0 {
		return nil
	}
	touched := r.touched[:0]
	for i := range batch {
		lr := r.loop(batch[i].LoopID)
		if lr.n == 0 {
			touched = append(touched, lr)
		}
		lr.n++
	}
	off := 0
	for _, lr := range touched {
		lr.off, off, lr.n = off, off+lr.n, 0
	}
	if cap(r.order) < len(batch) {
		r.order = make([]int32, len(batch))
	}
	order := r.order[:len(batch)]
	for i := range batch {
		lr := r.loops[batch[i].LoopID]
		order[lr.off+lr.n] = int32(i)
		lr.n++
	}
	maxEpoch := uint64(0)
	for _, lr := range touched {
		lr.t.mu.Lock()
		for _, i := range order[lr.off : lr.off+lr.n] {
			ev := &batch[i]
			// Taken out of the literal so the row is built in place.
			trackErr := obs.TrackErr(ev)
			row := [nSignals]float64{
				ev.IPS, ev.PowerW, ev.IPSTarget, ev.PowerTarget,
				ev.InnovNorm, ev.Guardband, float64(ev.Mode),
				float64(ev.ReqFreq), float64(ev.ReqCache), float64(ev.ReqROB),
				trackErr,
			}
			lr.t.appendRow(ev.Epoch, row[:])
			if ev.Epoch > maxEpoch {
				maxEpoch = ev.Epoch
			}
		}
		lr.t.mu.Unlock()
		lr.n = 0
	}
	r.touched = touched
	if r.det != nil {
		r.det.advance(maxEpoch)
	}
	return nil
}

// loop returns the loop's rows, building its table (once per loop) on
// first sight.
func (r *Recorder) loop(id uint32) *loopRows {
	if int(id) < len(r.loops) && r.loops[id] != nil {
		return r.loops[id]
	}
	if grow := int(id) + 1 - len(r.loops); grow > 0 {
		r.loops = append(r.loops, make([]*loopRows, grow)...)
	}
	name := ""
	if r.names != nil {
		name = r.names(id)
	}
	if name == "" {
		name = "loop-" + itoa(uint64(id))
	}
	lr := &loopRows{t: r.db.Table(name, Signals)}
	r.loops[id] = lr
	return lr
}

// Sync flushes every open rollup window so end-of-run queries at
// mid/coarse resolution cover the final epochs. Call after the bus has
// drained (e.g. after Bus.Close).
func (r *Recorder) Sync() {
	for _, t := range r.db.sorted() {
		t.Sync()
	}
}

// itoa is a small allocation-bounded uint formatter (avoids strconv in
// the register path only; appends are digit-free).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
