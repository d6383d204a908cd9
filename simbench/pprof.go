package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile.proto format that
// layer attribution needs (samples, locations with their inlined lines,
// functions, the string table), so the benchmark folds runtime/pprof CPU
// profiles without a protobuf dependency.

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	// samples hold each sample's CPU nanoseconds and its stack, leaf
	// frame first with inlined callees before their callers.
	samples []cpuSample
	totalNs int64
}

type cpuSample struct {
	ns     int64
	frames []frame
}

type frame struct {
	function string
	file     string
}

type pbLocation struct {
	functionIDs []uint64 // innermost first, as profile.proto orders lines
}

type pbFunction struct {
	name, file int64
}

type pbSample struct {
	locationIDs []uint64
	values      []int64
}

// decodeCPUProfile parses a gzip-compressed profile as written by
// runtime/pprof.StartCPUProfile.
func decodeCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		sampleTypes [][]byte
		samples     []pbSample
		locations   = map[uint64]pbLocation{}
		functions   = map[uint64]pbFunction{}
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			var s pbSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUvarints(&s.locationIDs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUvarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var loc pbLocation
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							loc.functionIDs = append(loc.functionIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locations[id] = loc
		case 5:
			var id uint64
			var fn pbFunction
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			functions[id] = fn
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, st := range sampleTypes {
		var typ int64
		if err := eachField(st, func(num, _ int, v uint64, _ []byte) error {
			if num == 1 {
				typ = int64(v)
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if str(typ) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		cs := cpuSample{ns: s.values[cpuIdx]}
		for _, id := range s.locationIDs {
			loc, ok := locations[id]
			if !ok {
				return nil, fmt.Errorf("pprof: unknown location %d", id)
			}
			for _, fid := range loc.functionIDs {
				fn := functions[fid]
				cs.frames = append(cs.frames, frame{function: str(fn.name), file: str(fn.file)})
			}
		}
		p.samples = append(p.samples, cs)
		p.totalNs += cs.ns
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message, passing
// varint values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated uint64 field's values, which the
// encoder writes either packed or one varint per field.
func appendUvarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
