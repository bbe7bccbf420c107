package flightrec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"mimoctl/internal/obs"
)

// sameRecord compares two records on every field: the v1 binary bytes
// are bit-exact on the flight-record fields (NaN payloads included) and
// the JSON text covers the rest.
func sameRecord(a, b obs.Event) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb) &&
		bytes.Equal(EncodeRecords([]obs.Event{a}), EncodeRecords([]obs.Event{b}))
}

// legacyJSONL is a JSONL dump as written before the flight record and
// the bus event became one type: "flags" and "mode" omitted when zero,
// and no loop/health/adapt/innov_norm/guardband keys.
const legacyJSONL = `{"flightrec":{"version":1,"arch":"supervised","workload":"namd","fault_class":"sensor-nan","seed":7,"epochs":2,"capacity":4,"target_ips":2.5,"target_power_w":2,"freq_levels":16,"cache_levels":4,"rob_levels":8}}
{"epoch":0,"flags":11,"mode":1,"ips_target":2.5,"power_target":2,"ips_meas":2.1,"power_meas":"+Inf","ips_true":2.3125,"power_true":1.96,"innov_ips":"NaN","innov_power":"NaN","excess_norm":"NaN","u_freq_ghz":"NaN","u_l2_ways":"NaN","u_rob":"NaN","req_freq":0,"req_cache":0,"req_rob":0,"cfg_freq":7,"cfg_cache":2,"cfg_rob":3}
{"epoch":1,"ips_target":2.5,"power_target":2,"ips_meas":2.4375,"power_meas":1.9,"ips_true":2.45,"power_true":1.95,"innov_ips":-0.03125,"innov_power":0.0125,"excess_norm":0.25,"u_freq_ghz":1.6,"u_l2_ways":6.5,"u_rob":"NaN","req_freq":8,"req_cache":3,"req_rob":-1,"cfg_freq":7,"cfg_cache":2,"cfg_rob":3}
`

// TestReadLegacyJSONL: a dump in the earlier JSONL format decodes to
// the values it was written with; the keys it lacks decode as "not
// stored" (0 and NaN), exactly as the binary format's.
func TestReadLegacyJSONL(t *testing.T) {
	meta, recs, err := ReadDump(strings.NewReader(legacyJSONL))
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := Meta{Version: 1, Arch: "supervised", Workload: "namd", FaultClass: "sensor-nan", Seed: 7,
		Epochs: 2, Capacity: 4, TargetIPS: 2.5, TargetPowerW: 2, FreqLevels: 16, CacheLevels: 4, ROBLevels: 8}
	if meta != wantMeta {
		t.Fatalf("meta = %+v\nwant %+v", meta, wantMeta)
	}
	nan := math.NaN()
	want := []obs.Event{{
		Epoch: 0, Flags: obs.FlagSupervised | obs.FlagFallback | obs.FlagSanitizedIPS, Mode: obs.ModeFallback,
		IPSTarget: 2.5, PowerTarget: 2, IPS: 2.1, PowerW: math.Inf(1), TrueIPS: 2.3125, TruePowerW: 1.96,
		InnovIPS: nan, InnovPowerW: nan, InnovNorm: nan, ExcessNorm: nan, Guardband: nan,
		UFreqGHz: nan, UL2Ways: nan, UROBEntries: nan,
		CfgFreq: 7, CfgCache: 2, CfgROB: 3,
	}, {
		Epoch:     1,
		IPSTarget: 2.5, PowerTarget: 2, IPS: 2.4375, PowerW: 1.9, TrueIPS: 2.45, TruePowerW: 1.95,
		InnovIPS: -0.03125, InnovPowerW: 0.0125, InnovNorm: nan, ExcessNorm: 0.25, Guardband: nan,
		UFreqGHz: 1.6, UL2Ways: 6.5, UROBEntries: nan,
		ReqFreq: 8, ReqCache: 3, ReqROB: obs.IdxNA, CfgFreq: 7, CfgCache: 2, CfgROB: 3,
	}}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !sameRecord(recs[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, recs[i], want[i])
		}
	}
}

// truncatedDump is a binary header that claims count records and then
// ends after a few bytes of the first one.
func truncatedDump(count uint32) []byte {
	var b bytes.Buffer
	put := func(v uint32) { _ = binary.Write(&b, binary.LittleEndian, v) }
	meta := []byte(`{"version":1,"seed":1,"epochs":0,"capacity":1}`)
	b.WriteString(Magic)
	put(FormatVersion)
	put(uint32(len(meta)))
	b.Write(meta)
	put(recordBinSize)
	put(count)
	b.Write(make([]byte, 70-b.Len()))
	return b.Bytes()
}

// TestReadBinaryTruncatedAllocBounded: the record count in a header is
// a claim, not evidence. A 70-byte file that claims 1<<24 records must
// fail with the short-read error without allocating for records it
// does not contain.
func TestReadBinaryTruncatedAllocBounded(t *testing.T) {
	dump := truncatedDump(1 << 24)
	if len(dump) != 70 {
		t.Fatalf("dump is %d bytes, want 70", len(dump))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadBinary(bytes.NewReader(dump))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "read record 0") {
		t.Fatalf("err = %v, want a short read of record 0", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a truncated 70-byte dump allocated %d bytes, want < 1 MiB", got)
	}
}

// FuzzReadDump: arbitrary bytes never panic the dump reader, and any
// input that decodes re-encodes through EncodeRecords to bytes that
// decode to the same records (on the fields the binary format stores).
func FuzzReadDump(f *testing.F) {
	// One record per seed: the minimizer's cost grows with input length.
	r := New(1)
	r.SetMeta(Meta{Arch: "mimo", Seed: 3})
	for i := 0; i < 2; i++ {
		r.Append(rec(i))
	}
	var bin, jl bytes.Buffer
	if err := writeBinary(&bin, r.Meta(), r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	if err := writeJSONL(&jl, r.Meta(), r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(jl.Bytes())
	f.Add([]byte(legacyJSONL[:strings.Index(legacyJSONL, "\n{\"epoch\":1")+1]))
	f.Add(truncatedDump(3))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, recs, err := ReadDump(bytes.NewReader(b))
		if err != nil {
			return
		}
		enc := EncodeRecords(recs)
		for i := range recs {
			want := recs[i]
			want.LoopID, want.Health, want.Adapt = 0, 0, 0
			want.InnovNorm, want.Guardband = math.NaN(), math.NaN()
			if got := getRecord(enc[i*recordBinSize:]); !sameRecord(got, want) {
				t.Fatalf("record %d re-decodes as %+v, want %+v", i, got, want)
			}
		}
	})
}
