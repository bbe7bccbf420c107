package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Bus is a bounded, lock-free multi-producer single-consumer event
// ring. Producers (control loops) publish with two atomic operations
// and a slot copy; a background consumer drains batches to the attached
// sinks and live subscribers. A full ring drops the event and counts it
// — the publisher never blocks, never allocates, and never waits on a
// slow sink (back-pressure surfaces as obs_events_dropped_total, not as
// control-loop jitter).
//
// The layout is the Vyukov bounded-queue design: each slot carries a
// sequence number producers and the consumer advance in lockstep, so no
// slot is read before its write completed and no slot is overwritten
// before its read completed.
//
// The pump is woken per batch, not per event. While events keep
// arriving it drains every pumpNap; only a drain that finds the ring
// empty parks it, and producers wake a parked pump, or a napping one
// once the ring is half full. A steady stream therefore costs one
// timer wake-up per nap instead of a goroutine wake-up per publish,
// and an event waits at most about one nap for its sinks.
type Bus struct {
	mask  uint64
	slots []busSlot

	head atomic.Uint64 // next producer position
	tail atomic.Uint64 // consumer position (written by the pump only)

	published atomic.Uint64
	dropped   atomic.Uint64
	occHWM    atomic.Uint64 // high-water mark of head-tail at publish

	wake   chan struct{}
	parked atomic.Bool // the pump is blocked until woken
	done   chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	sinks   []Sink
	sinkErr error
	subs    map[chan Event]struct{}
	subDrop atomic.Uint64
}

// pumpNap is how long the pump lets events accumulate after a drain
// that found some, before it drains again.
const pumpNap = 100 * time.Microsecond

type busSlot struct {
	seq atomic.Uint64
	ev  Event
}

// Sink consumes drained event batches on the bus's pump goroutine.
type Sink interface {
	WriteEvents(batch []Event) error
}

// NewBus returns a running bus with capacity rounded up to a power of
// two (minimum 64). Close releases the pump goroutine.
func NewBus(capacity int, sinks ...Sink) *Bus {
	n := 64
	for n < capacity {
		n <<= 1
	}
	b := &Bus{
		mask:  uint64(n - 1),
		slots: make([]busSlot, n),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		sinks: sinks,
		subs:  make(map[chan Event]struct{}),
	}
	for i := range b.slots {
		b.slots[i].seq.Store(uint64(i))
	}
	b.wg.Add(1)
	go b.pump()
	return b
}

// Publish copies ev into the ring. It reports false — after counting
// the drop — when the ring is full. Safe for concurrent producers; a
// nil bus ignores the event (the events-off tier).
func (b *Bus) Publish(ev *Event) bool {
	if b == nil {
		return false
	}
	for {
		pos := b.head.Load()
		s := &b.slots[pos&b.mask]
		seq := s.seq.Load()
		if seq == pos && b.head.CompareAndSwap(pos, pos+1) {
			s.ev = *ev
			s.seq.Store(pos + 1)
			b.published.Add(1)
			b.wakeIfNeeded(b.noteOccupancy(pos + 1))
			return true
		}
		if seq < pos {
			// The consumer has not freed this slot: ring full.
			b.dropped.Add(1)
			return false
		}
		// Another producer advanced head (seq > pos, or it won the CAS):
		// reload and retry.
	}
}

// PublishBatch copies a batch of events into the ring with one head
// reservation per contiguous run of free slots, amortizing the per-event
// CAS and wake of Publish across a fleet epoch. Events land in slice
// order. Returns how many were written; the tail of a batch that finds
// the ring full is dropped and counted, exactly like Publish. Safe for
// concurrent producers; a nil bus ignores the batch. Allocation-free.
func (b *Bus) PublishBatch(evs []Event) int {
	if b == nil || len(evs) == 0 {
		return 0
	}
	written := 0
	for written < len(evs) {
		pos := b.head.Load()
		// Count free slots from pos: slot j is free for round j exactly
		// when its sequence equals j, and the consumer frees slots in
		// order, so the run of claimable slots is contiguous.
		rem := len(evs) - written
		if rem > len(b.slots) {
			rem = len(b.slots)
		}
		n := 0
		for n < rem && b.slots[(pos+uint64(n))&b.mask].seq.Load() == pos+uint64(n) {
			n++
		}
		if n == 0 {
			if b.slots[pos&b.mask].seq.Load() < pos {
				// The consumer has not freed the next slot: ring full.
				// Drop the remainder so the producer never blocks.
				b.dropped.Add(uint64(len(evs) - written))
				return written
			}
			// Another producer advanced head; reload and retry.
			continue
		}
		if !b.head.CompareAndSwap(pos, pos+uint64(n)) {
			continue
		}
		// The slots in [pos, pos+n) are owned by this producer: head
		// serializes claims and the consumer never touches a free slot.
		for i := 0; i < n; i++ {
			s := &b.slots[(pos+uint64(i))&b.mask]
			s.ev = evs[written+i]
			s.seq.Store(pos + uint64(i) + 1)
		}
		b.published.Add(uint64(n))
		b.wakeIfNeeded(b.noteOccupancy(pos + uint64(n)))
		written += n
	}
	return written
}

// wakeIfNeeded wakes the pump after a publish that left occ events in
// the ring, when the pump is parked or the ring is half full. A
// producer reads parked after storing its slot's sequence and the pump
// re-checks the ring after raising parked, so a publish racing the
// pump's parking is never stranded.
func (b *Bus) wakeIfNeeded(occ uint64) {
	if b.parked.Load() || occ > uint64(len(b.slots))/2 {
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
}

// noteOccupancy folds the post-publish ring occupancy into the
// high-water mark and returns it. head is the producer position just
// written; the tail read may lag (the pump releases a slot's sequence
// before advancing tail), which only ever rounds occupancy up — the HWM
// stays a conservative pump-lag signal, clamped to the ring capacity
// occupancy cannot truly exceed. Lock- and allocation-free.
func (b *Bus) noteOccupancy(head uint64) uint64 {
	occ := head - b.tail.Load()
	if cap := uint64(len(b.slots)); occ > cap {
		occ = cap
	}
	for {
		cur := b.occHWM.Load()
		if occ <= cur || b.occHWM.CompareAndSwap(cur, occ) {
			return occ
		}
	}
}

// Stats reports cumulative publish accounting.
func (b *Bus) Stats() (published, dropped, subscriberDropped uint64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.published.Load(), b.dropped.Load(), b.subDrop.Load()
}

// Occupancy reports the ring entries currently awaiting the pump.
func (b *Bus) Occupancy() uint64 {
	if b == nil {
		return 0
	}
	return b.head.Load() - b.tail.Load()
}

// OccupancyHWM reports the worst ring occupancy seen at publish time —
// the pump-lag high-water mark: close to capacity means producers were
// about to drop.
func (b *Bus) OccupancyHWM() uint64 {
	if b == nil {
		return 0
	}
	return b.occHWM.Load()
}

// Cap reports the ring capacity in events.
func (b *Bus) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.slots)
}

// SinkErr returns the first sink write error, if any.
func (b *Bus) SinkErr() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sinkErr
}

// Subscribe registers a live event consumer with the given channel
// buffer. A subscriber that falls behind loses events (counted in
// Stats), never stalls the bus. cancel unregisters and closes the
// channel.
func (b *Bus) Subscribe(buf int) (events <-chan Event, cancel func()) {
	if buf < 1 {
		buf = 64
	}
	ch := make(chan Event, buf)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, ch)
			b.mu.Unlock()
			close(ch)
		})
	}
}

// Close drains outstanding events, flushes sinks, and stops the pump.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	close(b.done)
	b.wg.Wait()
	return b.SinkErr()
}

// pump is the single consumer: it drains the ring in batches and fans
// out to sinks and subscribers, napping between drains while events
// flow and parking when a drain finds none.
func (b *Bus) pump() {
	defer b.wg.Done()
	batch := make([]Event, 0, 256)
	nap := time.NewTimer(pumpNap)
	nap.Stop()
	flowing := false
	for {
		stopping := false
		if flowing {
			nap.Reset(pumpNap)
			select {
			case <-nap.C:
			case <-b.wake:
				nap.Stop()
			case <-b.done:
				stopping = true
			}
		} else {
			// Raise parked before the last look at the ring: a producer
			// either sees the flag and wakes the pump, or published
			// before that look and is drained now.
			b.parked.Store(true)
			if !b.ready() {
				select {
				case <-b.wake:
				case <-b.done:
					stopping = true
				}
			}
			b.parked.Store(false)
		}
		flowing = b.drain(batch) > 0
		if stopping {
			return
		}
	}
}

// ready reports whether the slot at the consumer position is written.
func (b *Bus) ready() bool {
	tail := b.tail.Load()
	return b.slots[tail&b.mask].seq.Load() == tail+1
}

// drain moves every written event to the sinks, in batches of
// cap(batch), and returns how many it moved.
func (b *Bus) drain(batch []Event) int {
	n := 0
	for {
		tail := b.tail.Load()
		s := &b.slots[tail&b.mask]
		if s.seq.Load() != tail+1 {
			break
		}
		batch = append(batch, s.ev)
		s.seq.Store(tail + uint64(len(b.slots)))
		b.tail.Store(tail + 1)
		n++
		if len(batch) == cap(batch) {
			b.flush(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		b.flush(batch)
	}
	return n
}

func (b *Bus) flush(batch []Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.sinks {
		if err := s.WriteEvents(batch); err != nil && b.sinkErr == nil {
			b.sinkErr = err
		}
	}
	for ch := range b.subs {
		for _, ev := range batch {
			select {
			case ch <- ev:
			default:
				b.subDrop.Add(1)
			}
		}
	}
}
