package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repository's packages the CPU share is split by, keyed
// by import path; the runtime and everything else get their own buckets.
var modules = map[string]string{
	"repro/internal/core":    "core",
	"repro/internal/shapley": "shapley",
	"repro/internal/exec":    "exec",
	"repro/internal/repair":  "repair",
	"repro/internal/dc":      "dc",
	"repro/internal/dc/plan": "dc.plan",
	"repro/internal/table":   "table",
	"repro/internal/server":  "server",
}

// shareBuckets lists every cpu_share bucket in report order.
var shareBuckets = []string{"core", "shapley", "exec", "repair", "dc", "dc.plan", "table", "server", "runtime", "other"}

// funcPackage returns the import path of a symbol name as pprof prints it,
// such as "repro/internal/dc.(*LiveViolationSet).Append".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// bucketOf maps a leaf symbol to its cpu_share bucket.
func bucketOf(name string) string {
	pkg := funcPackage(name)
	if m, ok := modules[pkg]; ok {
		return m
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuShares reads a gzip-compressed pprof CPU profile and returns each
// bucket's share of the sampled CPU time, attributing every sample to the
// package of its leaf frame. An empty profile yields all zeros.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	// The last sample value is the CPU time; the first counts samples.
	byBucket := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		name := ""
		if fn := p.locLeaf[s.locs[0]]; fn != 0 {
			name = p.strings[p.funcName[fn]]
		}
		byBucket[bucketOf(name)] += v
		total += v
	}
	out := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if total > 0 {
			out[b] = float64(byBucket[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, nil
}

// profile is the part of profile.proto the CPU share needs.
type profile struct {
	samples  []sample
	locLeaf  map[uint64]uint64 // location id -> function id of its innermost line
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the uncompressed protobuf encoding of a pprof
// profile: samples (field 2), locations (4), functions (5) and the string
// table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, leaf uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if leaf != 0 {
						return nil // the first line is the innermost inlined frame
					}
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = leaf
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field in either encoding:
// packed (wire type 2) or one value per field (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varint and fixed
// fields arrive in v, length-delimited ones in data.
func eachField(b []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
