package flightrec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"mimoctl/internal/obs"
)

// Dump format. Two encodings of the same versioned schema:
//
//   - binary: magic + version + JSON meta + fixed 144-byte records, each
//     a whole obs.Event with raw little-endian IEEE float bits — bit-exact
//     round-trip for every field including NaN payloads,
//   - JSONL: a meta header line then one record object per line in the
//     obs.Event text codec, whose "NaN"/"+Inf"/"-Inf" sentinels let
//     faulted windows survive a text dump too. JSONL canonicalizes NaN
//     payload bits; the binary format is the authoritative one for
//     byte-identical replay comparisons.
//
// FormatVersion covers both encodings; a dump of any other version
// (the v1 records dropped LoopID, Health, Adapt, InnovNorm and
// Guardband) is rejected rather than decoded with defaults. ReadDump
// auto-detects the encoding from the first bytes.

// FormatVersion is the dump schema version.
const FormatVersion = 2

// Magic starts every binary dump.
const Magic = "MIMOFREC"

// recordBinSize is the fixed on-disk record size: the epoch, the
// float fields, LoopID and Flags, the six knob indices, then Mode,
// Health and Adapt and one zero pad byte.
const recordBinSize = 144

// fields returns ev's float fields and knob indices in declaration
// order, the order the binary record stores them in.
func fields(ev *obs.Event) ([14]*float64, [6]*int16) {
	return [...]*float64{
			&ev.IPSTarget, &ev.PowerTarget, &ev.IPS, &ev.PowerW,
			&ev.TrueIPS, &ev.TruePowerW, &ev.InnovIPS, &ev.InnovPowerW,
			&ev.InnovNorm, &ev.ExcessNorm, &ev.Guardband,
			&ev.UFreqGHz, &ev.UL2Ways, &ev.UROBEntries,
		}, [...]*int16{
			&ev.ReqFreq, &ev.ReqCache, &ev.ReqROB, &ev.CfgFreq, &ev.CfgCache, &ev.CfgROB,
		}
}

// EncodeRecords renders records in the fixed binary layout (no header).
// Replay tests compare these bytes: float equality at the bit level is
// exactly what "byte-identical replay" means, NaN included.
func EncodeRecords(recs []obs.Event) []byte {
	out := make([]byte, len(recs)*recordBinSize)
	for i := range recs {
		putRecord(out[i*recordBinSize:], &recs[i])
	}
	return out
}

// putRecord writes r into b[:recordBinSize].
func putRecord(b []byte, r *obs.Event) {
	le := binary.LittleEndian
	b = le.AppendUint64(b[:0], r.Epoch)
	fs, is := fields(r)
	for _, f := range fs {
		b = le.AppendUint64(b, math.Float64bits(*f))
	}
	b = le.AppendUint32(le.AppendUint32(b, r.LoopID), r.Flags)
	for _, v := range is {
		b = le.AppendUint16(b, uint16(*v))
	}
	_ = append(b, r.Mode, r.Health, r.Adapt, 0)
}

func getRecord(b []byte) obs.Event {
	le := binary.LittleEndian
	var r obs.Event
	r.Epoch, b = le.Uint64(b), b[8:]
	fs, is := fields(&r)
	for _, f := range fs {
		*f, b = math.Float64frombits(le.Uint64(b)), b[8:]
	}
	r.LoopID, r.Flags, b = le.Uint32(b), le.Uint32(b[4:]), b[8:]
	for _, v := range is {
		*v, b = int16(le.Uint16(b)), b[2:]
	}
	r.Mode, r.Health, r.Adapt = b[0], b[1], b[2]
	return r
}

func writeBinary(w io.Writer, meta Meta, recs []obs.Event) error {
	meta.Version = FormatVersion
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("flightrec: encode meta: %w", err)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(Magic)
	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	put(FormatVersion)
	put(uint32(len(metaJSON)))
	bw.Write(metaJSON)
	put(recordBinSize)
	put(uint32(len(recs)))
	var rb [recordBinSize]byte
	for i := range recs {
		putRecord(rb[:], &recs[i])
		if _, err := bw.Write(rb[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a binary dump.
func ReadBinary(r io.Reader) (Meta, []obs.Event, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: read magic: %w", err)
	}
	if string(head) != Magic {
		return Meta{}, nil, fmt.Errorf("flightrec: bad magic %q", head)
	}
	var u32 [4]byte
	get := func() (uint32, error) {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	version, err := get()
	if err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: read version: %w", err)
	}
	if version != FormatVersion {
		return Meta{}, nil, fmt.Errorf("flightrec: unsupported dump version %d (want %d)", version, FormatVersion)
	}
	metaLen, err := get()
	if err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: read meta length: %w", err)
	}
	if metaLen > 1<<20 {
		return Meta{}, nil, fmt.Errorf("flightrec: implausible meta length %d", metaLen)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaJSON); err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: read meta: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: decode meta: %w", err)
	}
	size, err := get()
	if err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: read record size: %w", err)
	}
	if size != recordBinSize {
		return Meta{}, nil, fmt.Errorf("flightrec: record size %d (want %d)", size, recordBinSize)
	}
	count, err := get()
	if err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: read record count: %w", err)
	}
	if count > 1<<24 {
		return Meta{}, nil, fmt.Errorf("flightrec: implausible record count %d", count)
	}
	// The count is the header's claim, not evidence: grow the slice as
	// records actually arrive, so a truncated file cannot make the
	// reader allocate for records it does not contain.
	recs := make([]obs.Event, 0, min(int(count), 1024))
	var rb [recordBinSize]byte
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(br, rb[:]); err != nil {
			return Meta{}, nil, fmt.Errorf("flightrec: read record %d: %w", i, err)
		}
		recs = append(recs, getRecord(rb[:]))
	}
	return meta, recs, nil
}

// jsonlHeader is the first line of a JSONL dump.
type jsonlHeader struct {
	Meta Meta `json:"flightrec"`
}

func writeJSONL(w io.Writer, meta Meta, recs []obs.Event) error {
	meta.Version = FormatVersion
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(jsonlHeader{Meta: meta}); err != nil {
		return err
	}
	if err := obs.NewJSONLSink(bw, nil).WriteEvents(recs); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL dump.
func ReadJSONL(r io.Reader) (Meta, []obs.Event, error) {
	dec := json.NewDecoder(r)
	var head jsonlHeader
	if err := dec.Decode(&head); err != nil {
		return Meta{}, nil, fmt.Errorf("flightrec: decode JSONL header: %w", err)
	}
	if head.Meta.Version != FormatVersion {
		return Meta{}, nil, fmt.Errorf("flightrec: unsupported dump version %d (want %d)", head.Meta.Version, FormatVersion)
	}
	var recs []obs.Event
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return Meta{}, nil, fmt.Errorf("flightrec: decode record %d: %w", len(recs), err)
		}
		recs = append(recs, ev)
	}
	return head.Meta, recs, nil
}

// ReadDump auto-detects the encoding (binary magic vs. JSONL) and
// parses the dump.
func ReadDump(r io.Reader) (Meta, []obs.Event, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(Magic))
	if err != nil && len(head) == 0 {
		return Meta{}, nil, fmt.Errorf("flightrec: read dump: %w", err)
	}
	if bytes.HasPrefix(head, []byte(Magic)) {
		return ReadBinary(br)
	}
	return ReadJSONL(br)
}

// ReadDumpFile opens and parses a dump file in either encoding.
func ReadDumpFile(path string) (Meta, []obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	return ReadDump(f)
}

// WriteFile dumps the recorder to path, binary unless the path ends in
// .jsonl, stamping reason into the meta. Parent directories are
// created.
func (r *Recorder) WriteFile(path, reason string) error {
	if r == nil {
		return nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := r.Meta()
	meta.Reason = reason
	recs := r.Snapshot()
	if filepath.Ext(path) == ".jsonl" {
		err = writeJSONL(f, meta, recs)
	} else {
		err = writeBinary(f, meta, recs)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
