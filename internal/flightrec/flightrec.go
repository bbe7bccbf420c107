// Package flightrec implements the control-loop flight recorder: a
// fixed-size, allocation-free ring of per-epoch structured records
// written from the control loop's hot path and dumped on demand.
//
// The paper's safety flow — validate the model, set a guardband, prove
// robust stability (§IV-B, Fig. 3) — is design-time; the recorder is
// the runtime half of that story. Like an aircraft flight recorder it
// always runs, costs almost nothing (one nil check when detached, one
// uncontended mutex and a struct copy when attached), and preserves the
// last Capacity epochs of everything a post-mortem needs: targets,
// measured and true outputs, the Kalman innovation, the continuous
// actuation request, the quantized request, and the configuration that
// was actually in effect. internal/health's Diagnose and cmd/mimodoctor
// turn a dump into a ranked root-cause verdict, and the recorded
// seed/arch/fault-class identity lets the window be replayed
// bit-identically.
//
// The record is obs.Event, the one per-epoch schema the bus, the SLO
// engine, the history store and cmd/mimotrace share; the ring stamps
// its Epoch from its own sequence, starting at 1 as the fleet loop's
// does. The flag bits, modes and IdxNA the records carry are defined
// beside it in internal/obs.
//
// A loop has one record writer: a supervised loop's supervisor
// (supervisor.Supervised.SetFlightRecorder), and for every other loop
// the code that steps it, which fills each epoch's record with
// core.FillEvent and appends it. A nil *Recorder is valid and records nothing.
package flightrec

import (
	"sync"

	"mimoctl/internal/obs"
)

// Meta identifies a recording well enough to replay it: controller
// architecture, workload, fault class, and the seed that fixes every
// random stream. Level counts let a diagnoser detect knob saturation
// without importing the simulator.
type Meta struct {
	Version    int    `json:"version"`
	Arch       string `json:"arch,omitempty"`
	Workload   string `json:"workload,omitempty"`
	FaultClass string `json:"fault_class,omitempty"`
	Seed       int64  `json:"seed"`
	// Epochs is the total number of harness epochs driven (the ring
	// holds the last min(Epochs, Capacity) of them).
	Epochs   int `json:"epochs"`
	Capacity int `json:"capacity"`
	// Targets in effect for the run.
	TargetIPS    float64 `json:"target_ips,omitempty"`
	TargetPowerW float64 `json:"target_power_w,omitempty"`
	// Legal settings per knob (0 = unknown).
	FreqLevels  int `json:"freq_levels,omitempty"`
	CacheLevels int `json:"cache_levels,omitempty"`
	ROBLevels   int `json:"rob_levels,omitempty"`
	// Reason records what triggered the dump ("" while recording).
	Reason string `json:"reason,omitempty"`
}

// Recorder is the fixed-size ring. Append never allocates; Snapshot
// (the dump path) allocates a copy so a dump can race a live writer
// safely. All methods are safe on a nil receiver.
type Recorder struct {
	mu     sync.Mutex
	buf    []obs.Event
	next   int    // ring write position
	count  int    // records currently in the ring
	seq    uint64 // records ever appended; stamps Event.Epoch
	meta   Meta
	onDump func(reason string, r *Recorder)
}

// New builds a recorder holding the last capacity records (minimum 1;
// non-positive selects 4096).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Recorder{buf: make([]obs.Event, capacity), meta: Meta{Version: FormatVersion, Capacity: capacity}}
}

// Append copies one record into the ring, stamping the copy's Epoch
// from the recorder's sequence counter (the first record is epoch 1);
// ev itself is not modified. The hot-path cost is one uncontended mutex
// and a struct copy.
func (r *Recorder) Append(ev *obs.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	slot := &r.buf[r.next]
	*slot = *ev
	slot.Epoch = r.seq
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// Snapshot returns the ring contents in chronological order.
func (r *Recorder) Snapshot() []obs.Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]obs.Event, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	n := copy(out, r.buf[start:min(start+r.count, len(r.buf))])
	copy(out[n:], r.buf[:r.count-n])
	return out
}

// Last copies the most recent record into ev and reports whether the
// ring holds one; it does not allocate.
func (r *Recorder) Last(ev *obs.Event) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return false
	}
	i := r.next - 1
	if i < 0 {
		i += len(r.buf)
	}
	*ev = r.buf[i]
	return true
}

// Len reports how many records the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// SetMeta attaches the run identity included in every dump. Version and
// Capacity are maintained by the recorder itself.
func (r *Recorder) SetMeta(m Meta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	m.Version = FormatVersion
	m.Capacity = len(r.buf)
	r.meta = m
	r.mu.Unlock()
}

// Meta returns the attached run identity with Epochs filled from the
// append sequence.
func (r *Recorder) Meta() Meta {
	if r == nil {
		return Meta{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.meta
	m.Epochs = int(r.seq)
	return m
}

// Reset clears the ring and the sequence counter (the meta stays).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next, r.count, r.seq = 0, 0, 0
	r.mu.Unlock()
}

// SetOnDump installs the callback RequestDump invokes (e.g. write a
// dump file). The callback runs on the requesting goroutine without the
// recorder lock held, so it may call Snapshot and Meta freely.
func (r *Recorder) SetOnDump(fn func(reason string, r *Recorder)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onDump = fn
	r.mu.Unlock()
}

// RequestDump triggers the dump callback with the given reason (the
// supervisor calls it on fallback entry). Without a callback it is a
// no-op: recording continues and the ring stays inspectable.
func (r *Recorder) RequestDump(reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fn := r.onDump
	r.mu.Unlock()
	if fn != nil {
		fn(reason, r)
	}
}
