package obs

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBusDeliversInOrder(t *testing.T) {
	var buf bytes.Buffer
	bus := NewBus(256, NewJSONLSink(&buf, nil))
	for i := 0; i < 100; i++ {
		ev := Event{LoopID: 1, Epoch: uint64(i + 1), IPS: float64(i)}
		if !bus.Publish(&ev) {
			t.Fatalf("publish %d failed", i)
		}
	}
	if err := bus.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 100 {
		t.Fatalf("got %d lines, want 100", len(lines))
	}
	if !strings.Contains(lines[0], `"epoch":1,`) {
		t.Fatalf("first line out of order: %s", lines[0])
	}
	if !strings.Contains(lines[99], `"epoch":100,`) {
		t.Fatalf("last line out of order: %s", lines[99])
	}
	pub, drop, _ := bus.Stats()
	if pub != 100 || drop != 0 {
		t.Fatalf("stats = (%d published, %d dropped), want (100, 0)", pub, drop)
	}
}

func TestBusConcurrentPublishers(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[uint64]int)
	sink := sinkFunc(func(batch []Event) error {
		mu.Lock()
		for _, ev := range batch {
			seen[uint64(ev.LoopID)<<32|ev.Epoch]++
		}
		mu.Unlock()
		return nil
	})
	bus := NewBus(1<<14, sink)
	const producers, per = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ev := Event{LoopID: uint32(p), Epoch: uint64(i)}
				for !bus.Publish(&ev) {
				}
			}
		}(p)
	}
	wg.Wait()
	if err := bus.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != producers*per {
		t.Fatalf("delivered %d distinct events, want %d", len(seen), producers*per)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("event %x delivered %d times", k, n)
		}
	}
}

func TestBusDropsWhenFull(t *testing.T) {
	// No sink, and we flood faster than the pump can drain a tiny ring:
	// eventually drops must be counted, and Publish must never block.
	bus := NewBus(1) // rounds up to 64
	defer bus.Close()
	var dropped bool
	for i := 0; i < 1_000_000 && !dropped; i++ {
		ev := Event{Epoch: uint64(i)}
		if !bus.Publish(&ev) {
			dropped = true
		}
	}
	_, drops, _ := bus.Stats()
	if !dropped || drops == 0 {
		t.Fatalf("expected counted drops on a flooded ring, got dropped=%v drops=%d", dropped, drops)
	}
}

func TestBusOccupancyHWM(t *testing.T) {
	bus := NewBus(64)
	defer bus.Close()
	if bus.Cap() != 64 {
		t.Fatalf("cap %d, want 64", bus.Cap())
	}
	// Flood until a drop: the publisher must have seen the ring at (or
	// near) capacity, so the HWM is pinned high regardless of how fast
	// the pump drains afterwards.
	for i := 0; ; i++ {
		ev := Event{Epoch: uint64(i)}
		if !bus.Publish(&ev) {
			break
		}
		if i > 1_000_000 {
			t.Fatal("ring never filled")
		}
	}
	hwm := bus.OccupancyHWM()
	if hwm == 0 || hwm > uint64(bus.Cap()) {
		t.Fatalf("occupancy HWM %d after a flood, want in (0, %d]", hwm, bus.Cap())
	}
	if occ := bus.Occupancy(); occ > uint64(bus.Cap()) {
		t.Fatalf("instantaneous occupancy %d exceeds capacity", occ)
	}
}

// TestBusOccupancyClampsToCapacity: a producer reading the tail before
// the pump advances it can compute an occupancy past the ring's
// capacity; the high-water mark never exceeds the capacity.
func TestBusOccupancyClampsToCapacity(t *testing.T) {
	b := &Bus{slots: make([]busSlot, 4), mask: 3}
	if occ := b.noteOccupancy(2); occ != 2 || b.OccupancyHWM() != 2 {
		t.Fatalf("occupancy %d, HWM %d, want 2 and 2", occ, b.OccupancyHWM())
	}
	if occ := b.noteOccupancy(6); occ != 4 || b.OccupancyHWM() != 4 {
		t.Fatalf("occupancy %d, HWM %d past capacity, want 4 and 4", occ, b.OccupancyHWM())
	}
}

// TestBusSubscriberDropsWhenBehind: a subscriber that does not read
// keeps its channel's buffer and loses the rest, counted, however the
// pump batches them.
func TestBusSubscriberDropsWhenBehind(t *testing.T) {
	bus := NewBus(64)
	events, cancel := bus.Subscribe(1)
	defer cancel()
	for i := 0; i < 3; i++ {
		ev := Event{Epoch: uint64(i)}
		bus.Publish(&ev)
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, subDrops := bus.Stats(); subDrops != 2 {
		t.Fatalf("subscriber drops %d, want 2", subDrops)
	}
	if got := <-events; got.Epoch != 0 {
		t.Fatalf("subscriber kept epoch %d, want the first event", got.Epoch)
	}
}

func TestBusNilSafe(t *testing.T) {
	var bus *Bus
	ev := Event{}
	if bus.Publish(&ev) {
		t.Fatal("nil bus accepted an event")
	}
	if p, d, s := bus.Stats(); p != 0 || d != 0 || s != 0 {
		t.Fatal("nil bus reported nonzero stats")
	}
	if bus.Occupancy() != 0 || bus.OccupancyHWM() != 0 || bus.Cap() != 0 {
		t.Fatal("nil bus reported nonzero occupancy accounting")
	}
	if err := bus.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
}

func TestBusSubscriber(t *testing.T) {
	bus := NewBus(256)
	defer bus.Close()
	events, cancel := bus.Subscribe(16)
	defer cancel()
	ev := Event{LoopID: 7, Epoch: 42}
	bus.Publish(&ev)
	got := <-events
	if got.LoopID != 7 || got.Epoch != 42 {
		t.Fatalf("subscriber got %+v", got)
	}
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	bus := NewBus(64, NewCSVSink(&buf, func(id uint32) string { return "ctl" }))
	ev := Event{LoopID: 0, Epoch: 3, Mode: 1, ReqFreq: 9}
	bus.Publish(&ev)
	if err := bus.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d CSV lines, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "loop,epoch,mode,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "ctl,3,1,") {
		t.Fatalf("bad row: %s", lines[1])
	}
}

func TestPublishAllocFree(t *testing.T) {
	bus := NewBus(1 << 16)
	defer bus.Close()
	ev := Event{LoopID: 1, Epoch: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		bus.Publish(&ev)
	})
	if allocs != 0 {
		t.Fatalf("Publish allocates %.1f allocs/op, want 0", allocs)
	}
}

type sinkFunc func(batch []Event) error

func (f sinkFunc) WriteEvents(batch []Event) error { return f(batch) }

// TestBusDeliversTrickleWithoutClose publishes with pauses that let the
// pump both nap and park between events, and requires every event to
// reach the sink while the bus stays open: a publish that raced the
// pump's parking and was not woken for would never be delivered.
func TestBusDeliversTrickleWithoutClose(t *testing.T) {
	var got atomic.Int64
	bus := NewBus(1<<10, sinkFunc(func(batch []Event) error {
		got.Add(int64(len(batch)))
		return nil
	}))
	defer bus.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		ev := Event{Epoch: uint64(i)}
		if !bus.Publish(&ev) {
			t.Fatalf("publish %d dropped", i)
		}
		switch i % 50 {
		case 0:
			time.Sleep(300 * time.Microsecond) // past a nap: the pump parks
		case 25:
			time.Sleep(20 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("sink saw %d of %d events with the bus open", got.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
