package flightrec

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mimoctl/internal/obs"
	"mimoctl/internal/testkit"
)

// rec returns a record whose fields are all derived from i, with NaN
// and ±Inf planted on the float channels every few records — the dump
// format must round-trip exactly the values a faulted run produces.
func rec(i int) *obs.Event {
	f := float64(i)
	r := &obs.Event{
		LoopID: uint32(i + 7), Flags: uint32(i),
		Mode: uint8(i % 2), Health: uint8(i % 3), Adapt: uint8(i % 5),
		IPSTarget: 2.5, PowerTarget: 2.0,
		IPS: f * 1.01, PowerW: f * 1.02,
		TrueIPS: f * 1.03, TruePowerW: f * 1.04,
		InnovIPS: f * 0.01, InnovPowerW: f * 0.02, InnovNorm: f * 0.03,
		ExcessNorm: f * 0.001, Guardband: f * 0.05,
		UFreqGHz: f * 0.1, UL2Ways: f * 0.2, UROBEntries: f * 16,
		ReqFreq: int16(i % 16), ReqCache: int16(i % 4), ReqROB: obs.IdxNA,
		CfgFreq: int16((i + 1) % 16), CfgCache: int16((i + 1) % 4), CfgROB: 0,
	}
	switch i % 5 {
	case 1:
		r.IPS = math.NaN()
		r.InnovIPS = math.NaN()
	case 2:
		r.PowerW = math.Inf(1)
	case 3:
		r.UFreqGHz = math.Inf(-1)
		r.Guardband = math.NaN()
	}
	return r
}

func TestRingWraparound(t *testing.T) {
	r := New(8)
	for i := 0; i < 20; i++ {
		r.Append(rec(i))
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := r.Meta().Epochs; got != 20 {
		t.Fatalf("Meta().Epochs = %d, want 20", got)
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot has %d records, want 8", len(snap))
	}
	for k, s := range snap {
		// The oldest surviving record is append #12, epoch 13.
		if want := uint64(13 + k); s.Epoch != want {
			t.Errorf("snap[%d].Epoch = %d, want %d", k, s.Epoch, want)
		}
		if s.ReqFreq != int16((12+k)%16) {
			t.Errorf("snap[%d] payload does not match append %d", k, 12+k)
		}
	}
}

// TestLastIsNewestRecord: Last copies what Snapshot ends with, through
// every ring position, wrapped or not.
func TestLastIsNewestRecord(t *testing.T) {
	r := New(8)
	var ev obs.Event
	if r.Last(&ev) {
		t.Fatal("Last on an empty ring reported a record")
	}
	for i := 0; i < 20; i++ {
		r.Append(rec(i))
		if !r.Last(&ev) {
			t.Fatalf("after append %d: Last reported no record", i)
		}
		snap := r.Snapshot()
		if d := testkit.EventDiff(ev, snap[len(snap)-1]); d != nil {
			t.Fatalf("after append %d: Last differs from the snapshot's newest: %v", i, d)
		}
	}
}

func TestAppendBelowCapacity(t *testing.T) {
	r := New(16)
	for i := 0; i < 5; i++ {
		r.Append(rec(i))
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d records, want 5", len(snap))
	}
	for k, s := range snap {
		if s.Epoch != uint64(k+1) {
			t.Errorf("snap[%d].Epoch = %d, want %d", k, s.Epoch, k+1)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Append(rec(0))
	r.RequestDump("nil")
	r.SetMeta(Meta{})
	r.Reset()
	if r.Snapshot() != nil || r.Len() != 0 || r.Meta() != (Meta{}) || r.Last(rec(0)) {
		t.Fatal("nil recorder must observe as empty")
	}
}

// TestConcurrentSnapshotWhileWriting exercises the dump path racing a
// live writer; run under -race this is the recorder's thread-safety
// proof.
func TestConcurrentSnapshotWhileWriting(t *testing.T) {
	r := New(64)
	const writes = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			r.Append(rec(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			snap := r.Snapshot()
			// Epochs within one snapshot must be consecutive: a torn
			// snapshot would show a gap or duplicate.
			for k := 1; k < len(snap); k++ {
				if snap[k].Epoch != snap[k-1].Epoch+1 {
					t.Errorf("torn snapshot: epoch %d follows %d", snap[k].Epoch, snap[k-1].Epoch)
					return
				}
			}
			var buf bytes.Buffer
			if err := writeBinary(&buf, r.Meta(), r.Snapshot()); err != nil {
				t.Errorf("writeBinary: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestBinaryRoundTrip: a binary dump stores every field of obs.Event
// bit-exact, the epoch, NaN payloads, signalling NaNs, infinities and
// negative zero included.
func TestBinaryRoundTrip(t *testing.T) {
	r := New(32)
	r.SetMeta(Meta{Arch: "mimo", Workload: "namd", FaultClass: "sensor-nan", Seed: 2016,
		Epochs: 40, TargetIPS: 2.5, TargetPowerW: 2.0, FreqLevels: 16, CacheLevels: 4, ROBLevels: 8})
	for i := 0; i < 40; i++ {
		r.Append(rec(i))
	}
	want := append(r.Snapshot(), everyField(t, 0), everyField(t, 1), everyField(t, 2))
	var buf bytes.Buffer
	if err := writeBinary(&buf, r.Meta(), want); err != nil {
		t.Fatal(err)
	}
	meta, recs, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Arch != "mimo" || meta.FaultClass != "sensor-nan" || meta.Seed != 2016 || meta.Capacity != 32 {
		t.Errorf("meta did not round-trip: %+v", meta)
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if d := testkit.EventDiff(recs[i], want[i]); len(d) != 0 {
			t.Errorf("record %d did not round-trip: %v", i, d)
		}
	}
}

func TestJSONLRoundTripNaNInf(t *testing.T) {
	r := New(16)
	r.SetMeta(Meta{Arch: "supervised", Seed: 7, Epochs: 16})
	for i := 0; i < 16; i++ {
		r.Append(rec(i)) // every 5th record carries NaN / ±Inf
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, r.Meta(), r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	meta, recs, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Arch != "supervised" || meta.Seed != 7 {
		t.Errorf("meta did not round-trip: %+v", meta)
	}
	// Byte-level identity through EncodeRecords covers NaN payloads and
	// infinity signs exactly.
	if !bytes.Equal(EncodeRecords(recs), EncodeRecords(r.Snapshot())) {
		t.Fatal("JSONL round-trip is not bit-identical (NaN/Inf lost)")
	}
}

func TestReadDumpAutodetects(t *testing.T) {
	r := New(8)
	r.SetMeta(Meta{Arch: "mimo", Seed: 1})
	for i := 0; i < 8; i++ {
		r.Append(rec(i))
	}
	var bin, jl bytes.Buffer
	if err := writeBinary(&bin, r.Meta(), r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONL(&jl, r.Meta(), r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"binary": &bin, "jsonl": &jl} {
		_, recs, err := ReadDump(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != 8 {
			t.Fatalf("%s: got %d records, want 8", name, len(recs))
		}
	}
}

func TestWriteFileStampsReasonAndExtension(t *testing.T) {
	dir := t.TempDir()
	r := New(8)
	r.SetMeta(Meta{Arch: "mimo", Seed: 3})
	r.Append(rec(0))
	for _, name := range []string{"d.frec", "d.jsonl"} {
		path := filepath.Join(dir, "sub", name)
		if err := r.WriteFile(path, "unit-test"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		meta, recs, err := ReadDumpFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meta.Reason != "unit-test" {
			t.Errorf("%s: reason = %q, want unit-test", name, meta.Reason)
		}
		if len(recs) != 1 {
			t.Errorf("%s: %d records, want 1", name, len(recs))
		}
	}
	// The persisted Meta must not leak the dump reason back into the
	// live recorder.
	if got := r.Meta().Reason; got != "" {
		t.Errorf("live recorder meta reason = %q, want empty", got)
	}
	b, err := os.ReadFile(filepath.Join(dir, "sub", "d.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("{")) {
		t.Error(".jsonl file does not start with a JSON meta line")
	}
}

func TestRequestDumpCallsHook(t *testing.T) {
	r := New(8)
	r.Append(rec(0))
	var gotReason string
	var gotLen int
	r.SetOnDump(func(reason string, rr *Recorder) {
		gotReason = reason
		gotLen = rr.Len()
	})
	r.RequestDump("supervisor-fallback")
	if gotReason != "supervisor-fallback" || gotLen != 1 {
		t.Fatalf("hook saw (%q, %d), want (supervisor-fallback, 1)", gotReason, gotLen)
	}
}

// TestAppendDoesNotAllocate is the hot-path contract: attaching a
// recorder adds a mutex and a struct copy to Step, never a heap
// allocation.
func TestAppendDoesNotAllocate(t *testing.T) {
	r := New(1024)
	sample := rec(1)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Append(sample)
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkAppend(b *testing.B) {
	r := New(4096)
	sample := rec(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Append(sample)
	}
}
