package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// profileCPU runs fn under the runtime CPU profiler, stores the profile
// as <out>/<workload>.cpu.pprof, and returns cpu.<pkg> shares of the
// sampled CPU time by the package of each sample's innermost frame.
func profileCPU(cfg runConfig, fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := os.WriteFile(filepath.Join(cfg.out, cfg.workload+".cpu.pprof"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	byPkg, err := flatByPackage(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	total := 0.0
	for _, v := range byPkg {
		total += v
	}
	shares := map[string]float64{}
	for _, p := range cpuPackages {
		shares["cpu."+p] = 0
		if total > 0 {
			shares["cpu."+p] = byPkg[p] / total
		}
	}
	return shares, nil
}

// flatByPackage decodes a gzipped profile.proto and sums the first
// sample value (the sample count) by the short package name of each
// sample's innermost frame, as packageOf names it.
func flatByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		strs     []string
		samples  []sample
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string table index
	)
	// Field numbers are those of profile.proto's Profile, Sample,
	// Location, Line and Function messages.
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // Sample.location_id
					ids, err := varints(v, data)
					if len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
					return err
				case 2: // Sample.value
					vals, err := varints(v, data)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id, fn uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line; the first is the innermost inlined frame
					if fn == 0 {
						return fields(data, func(num int, v uint64, _ []byte) error {
							if num == 1 { // Line.function_id
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		idx := funcName[leafFunc[s.loc]]
		if idx >= uint64(len(strs)) {
			return nil, errors.New("function name index out of range")
		}
		out[packageOf(strs[idx])] += float64(s.count)
	}
	return out, nil
}

// packageOf maps a symbol such as "mimoctl/internal/sim.(*Processor).Step"
// to the short name it is reported under: the internal package name
// ("sim"), "runtime" for the runtime and its internal packages, or the
// full import path otherwise ("math", "sync/atomic").
func packageOf(symbol string) string {
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i] // generic instantiation
	}
	pkg := symbol
	slash := strings.LastIndexByte(symbol, '/')
	if dot := strings.IndexByte(symbol[slash+1:], '.'); dot >= 0 {
		pkg = symbol[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "mimoctl/internal/"):
		return strings.TrimPrefix(pkg, "mimoctl/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// fields calls fn for each field of a protobuf message: v is the value
// of a varint or fixed-width field and data the payload of a
// length-delimited one.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return io.ErrUnexpectedEOF
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return io.ErrUnexpectedEOF
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values: the single value v,
// or the packed values in data.
func varints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
