package flightrec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mimoctl/internal/obs"
	"mimoctl/internal/testkit"
)

// everyField returns a record whose every field holds a value derived
// from seed, set through reflection so that a field added to obs.Event
// without a place in the binary record fails the round trip. Every
// other float is a special value: NaNs with distinct payloads and both
// signs, ±Inf, and −0.
func everyField(t testing.TB, seed uint64) obs.Event {
	specials := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0001 + seed), // quiet NaN with a payload
		math.Float64frombits(0xfff0_0000_0000_0002 + seed), // negative signalling NaN
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	}
	var ev obs.Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), seed*31+uint64(i)+1
		switch f.Kind() {
		case reflect.Float64:
			if i%2 == 0 {
				f.SetFloat(specials[(int(seed)+i/2)%len(specials)])
			} else {
				f.SetFloat(float64(n) * 1.25)
			}
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			f.SetUint(n % 251)
		case reflect.Int16:
			f.SetInt(-int64(n))
		default:
			t.Fatalf("obs.Event.%s: no value for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return ev
}

// legacyJSONL is a v1 JSONL dump.
const legacyJSONL = `{"flightrec":{"version":1,"arch":"supervised","workload":"namd","fault_class":"sensor-nan","seed":7,"epochs":2,"capacity":4,"target_ips":2.5,"target_power_w":2,"freq_levels":16,"cache_levels":4,"rob_levels":8}}
{"epoch":0,"flags":11,"mode":1,"ips_target":2.5,"power_target":2,"ips_meas":2.1,"power_meas":"+Inf","ips_true":2.3125,"power_true":1.96,"innov_ips":"NaN","innov_power":"NaN","excess_norm":"NaN","u_freq_ghz":"NaN","u_l2_ways":"NaN","u_rob":"NaN","req_freq":0,"req_cache":0,"req_rob":0,"cfg_freq":7,"cfg_cache":2,"cfg_rob":3}
`

// v1Binary is a v1 binary dump: version 1 in the header and one
// 128-byte record.
func v1Binary() []byte {
	var b bytes.Buffer
	put := func(v uint32) { _ = binary.Write(&b, binary.LittleEndian, v) }
	meta := []byte(`{"version":1,"arch":"mimo","seed":3,"epochs":1,"capacity":1}`)
	b.WriteString(Magic)
	put(1)
	put(uint32(len(meta)))
	b.Write(meta)
	put(128)
	put(1)
	b.Write(make([]byte, 128))
	return b.Bytes()
}

// TestReadRejectsV1: a v1 dump, binary or JSONL, is refused with an
// error naming its version; it is not decoded with the fields v1 did
// not store defaulted.
func TestReadRejectsV1(t *testing.T) {
	for name, dump := range map[string][]byte{"binary": v1Binary(), "jsonl": []byte(legacyJSONL)} {
		_, recs, err := ReadDump(bytes.NewReader(dump))
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("%s: err = %v (%d records), want a rejection naming version 1", name, err, len(recs))
		}
	}
}

// truncatedDump is a binary header that claims count records and then
// ends after a few bytes of the first one.
func truncatedDump(count uint32) []byte {
	var b bytes.Buffer
	put := func(v uint32) { _ = binary.Write(&b, binary.LittleEndian, v) }
	meta := []byte(`{"version":2,"seed":1,"epochs":0,"capacity":1}`)
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

// FuzzReadDump: arbitrary bytes never panic the dump reader, a dump
// whose header claims another version than FormatVersion is rejected,
// and any input that decodes re-encodes through EncodeRecords to bytes
// that decode to the same records, bit-exact on every field.
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
	f.Add(v1Binary())
	f.Add(truncatedDump(3))
	f.Add([]byte(legacyJSONL))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, recs, err := ReadDump(bytes.NewReader(b))
		if err != nil {
			return
		}
		if v := headerVersion(b); v != FormatVersion {
			t.Fatalf("decoded a dump whose header claims version %d", v)
		}
		enc := EncodeRecords(recs)
		for i := range recs {
			if d := testkit.EventDiff(getRecord(enc[i*recordBinSize:]), recs[i]); len(d) != 0 {
				t.Fatalf("record %d re-decodes differently: %v", i, d)
			}
		}
	})
}

// headerVersion is the version a dump's header claims: the binary
// header's version word, else the JSONL meta line's version (-1 when
// neither parses).
func headerVersion(b []byte) int {
	if bytes.HasPrefix(b, []byte(Magic)) && len(b) >= len(Magic)+4 {
		return int(binary.LittleEndian.Uint32(b[len(Magic):]))
	}
	var head jsonlHeader
	if json.NewDecoder(bytes.NewReader(b)).Decode(&head) != nil {
		return -1
	}
	return head.Meta.Version
}
