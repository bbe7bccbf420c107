package tsdb

import (
	"math"
	"testing"

	"mimoctl/internal/obs"
)

// BenchmarkTSDBIngest measures the recorder's batch ingest path — the
// work the obs.Bus pump goroutine pays per drained batch — across an
// 8-loop fleet with realistically wobbly signals. TestIngestAllocFree
// pins the same path at zero allocations.
func BenchmarkTSDBIngest(b *testing.B) {
	db := New(Options{})
	rec := NewRecorder(db, nil)
	const (
		nLoops    = 8
		batchSize = 64
	)
	batch := make([]obs.Event, batchSize)
	epoch := uint64(0)
	fill := func() {
		for j := range batch {
			id := uint32(j % nLoops)
			if id == 0 {
				epoch++
			}
			wob := math.Sin(float64(epoch) / 37)
			batch[j] = obs.Event{
				LoopID: id, Epoch: epoch,
				IPS: 2.3 + 0.05*wob, IPSTarget: 2.5,
				PowerW: 1.9 + 0.02*wob, PowerTarget: 2.0,
				InnovNorm: 0.1 + 0.01*wob, Guardband: 0.3,
				ReqFreq: 3, ReqCache: 4, ReqROB: 5,
			}
		}
	}
	// Warm past ring preallocation and the first seal/recycle cycle.
	for i := 0; i < 64; i++ {
		fill()
		if err := rec.WriteEvents(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		if err := rec.WriteEvents(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/event")
}
