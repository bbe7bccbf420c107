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
// publish side is unchanged), and the pump's batch drain amortizes the
// per-event work. WriteEvents is called only from that single pump
// goroutine, so the loop table needs no lock; the per-series appends
// are mutex-guarded against concurrent queries.
//
// Steady state the ingest path performs zero heap allocations
// (TestIngestAllocFree): series preallocate their block rings on first
// sight of a loop, and every later append recycles sealed buffers.
type Recorder struct {
	db    *DB
	names obs.NameFunc
	loops map[uint32]*loopSeries

	det *Detector
}

type loopSeries struct {
	s [nSignals]*Series
}

// NewRecorder builds a bus sink feeding db. names resolves loop ids to
// registered names (nil renders numeric ids, matching the text sinks).
func NewRecorder(db *DB, names obs.NameFunc) *Recorder {
	return &Recorder{db: db, names: names, loops: make(map[uint32]*loopSeries)}
}

// DB returns the store this recorder feeds.
func (r *Recorder) DB() *DB { return r.db }

// SetDetector attaches a baseline-drift detector that is advanced on
// the pump goroutine as events are ingested (nil detaches).
func (r *Recorder) SetDetector(d *Detector) { r.det = d }

// WriteEvents implements obs.Sink.
func (r *Recorder) WriteEvents(batch []obs.Event) error {
	maxEpoch := uint64(0)
	for i := range batch {
		ev := &batch[i]
		ls := r.loops[ev.LoopID]
		if ls == nil {
			ls = r.register(ev.LoopID)
		}
		ls.s[0].Append(ev.Epoch, ev.IPS)
		ls.s[1].Append(ev.Epoch, ev.PowerW)
		ls.s[2].Append(ev.Epoch, ev.IPSTarget)
		ls.s[3].Append(ev.Epoch, ev.PowerTarget)
		ls.s[4].Append(ev.Epoch, ev.InnovNorm)
		ls.s[5].Append(ev.Epoch, ev.Guardband)
		ls.s[6].Append(ev.Epoch, float64(ev.Mode))
		ls.s[7].Append(ev.Epoch, float64(ev.ReqFreq))
		ls.s[8].Append(ev.Epoch, float64(ev.ReqCache))
		ls.s[9].Append(ev.Epoch, float64(ev.ReqROB))
		ls.s[10].Append(ev.Epoch, obs.TrackErr(ev))
		if ev.Epoch > maxEpoch {
			maxEpoch = ev.Epoch
		}
	}
	if r.det != nil && len(batch) > 0 {
		r.det.advance(maxEpoch)
	}
	return nil
}

// register creates (once per loop) the per-signal series set.
func (r *Recorder) register(id uint32) *loopSeries {
	name := ""
	if r.names != nil {
		name = r.names(id)
	}
	if name == "" {
		name = "loop-" + itoa(uint64(id))
	}
	ls := &loopSeries{}
	for i, sig := range Signals {
		ls.s[i] = r.db.Series(name, sig)
	}
	r.loops[id] = ls
	return ls
}

// Sync flushes every open rollup window so end-of-run queries at
// mid/coarse resolution cover the final epochs. Call after the bus has
// drained (e.g. after Bus.Close).
func (r *Recorder) Sync() {
	for _, k := range r.db.Keys() {
		if s := r.db.Lookup(k.Loop, k.Signal); s != nil {
			s.Sync()
		}
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
