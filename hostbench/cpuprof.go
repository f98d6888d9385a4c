package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A reader for the few fields of the pprof profile format
// (github.com/google/pprof/proto/profile.proto) the CPU fold needs, so
// the module stays free of dependencies: a gzip stream holding one
// protobuf Profile message.

// cpuSample is one decoded sample: its stack as function names, leaf
// first, its value in the profile's last sample type (CPU nanoseconds),
// and its string labels.
type cpuSample struct {
	funcs  []string
	value  int64
	labels map[string]string
}

// pbField is one decoded protobuf field: a varint value or, for a
// length-delimited field, its bytes.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errTruncated = errors.New("pprof: truncated message")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		tag, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		f := pbField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			if f.val, rest, err = pbVarint(rest); err != nil {
				return nil, err
			}
		case 1:
			if len(rest) < 8 {
				return nil, errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = pbVarint(rest); err != nil {
				return nil, err
			}
			if uint64(len(rest)) < n {
				return nil, errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return nil, errTruncated
			}
			rest = rest[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// pbInts reads a repeated integer field occurrence, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.val}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = rest
	}
	return out, nil
}

// parseCPUProfile decodes a gzip-compressed pprof profile into samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	// Profile: sample = 2, location = 4, function = 5, string_table = 6.
	var strs []string
	for _, f := range top {
		if f.num == 6 {
			strs = append(strs, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	funcName := map[uint64]string{} // Function: id = 1, name = 2
	for _, f := range top {
		if f.num != 5 {
			continue
		}
		fs, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		var id, name uint64
		for _, ff := range fs {
			switch ff.num {
			case 1:
				id = ff.val
			case 2:
				name = ff.val
			}
		}
		funcName[id] = str(name)
	}
	// Location: id = 1, line = 4 (Line: function_id = 1). A location's
	// lines list inlined functions innermost first.
	locFuncs := map[uint64][]string{}
	for _, f := range top {
		if f.num != 4 {
			continue
		}
		fs, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		var id uint64
		var names []string
		for _, ff := range fs {
			switch ff.num {
			case 1:
				id = ff.val
			case 4:
				ls, err := pbFields(ff.data)
				if err != nil {
					return nil, err
				}
				for _, lf := range ls {
					if lf.num == 1 {
						names = append(names, funcName[lf.val])
					}
				}
			}
		}
		locFuncs[id] = names
	}
	// Sample: location_id = 1 (leaf first), value = 2, label = 3
	// (Label: key = 1, str = 2).
	var samples []cpuSample
	for _, f := range top {
		if f.num != 2 {
			continue
		}
		fs, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		var s cpuSample
		var values []uint64
		for _, ff := range fs {
			switch ff.num {
			case 1:
				ids, err := pbInts(ff)
				if err != nil {
					return nil, err
				}
				for _, id := range ids {
					s.funcs = append(s.funcs, locFuncs[id]...)
				}
			case 2:
				vs, err := pbInts(ff)
				if err != nil {
					return nil, err
				}
				values = append(values, vs...)
			case 3:
				ls, err := pbFields(ff.data)
				if err != nil {
					return nil, err
				}
				var key, val uint64
				for _, lf := range ls {
					switch lf.num {
					case 1:
						key = lf.val
					case 2:
						val = lf.val
					}
				}
				if val != 0 {
					if s.labels == nil {
						s.labels = map[string]string{}
					}
					s.labels[str(key)] = str(val)
				}
			}
		}
		if len(values) > 0 {
			s.value = int64(values[len(values)-1])
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// foldCPU returns each layer's share of the CPU samples taken in timed
// regions. The driver goroutine labels itself region=timed or
// region=untimed; a sample with no region label comes from a runtime
// goroutine (collector workers) and counts with the timed ones, since the
// traced phase spends nearly all of its time inside timed regions.
func foldCPU(samples []cpuSample) map[string]float64 {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.labels["region"] == "untimed" {
			continue
		}
		byLayer[layerOf(s.funcs)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(byLayer))
	if total == 0 {
		return shares
	}
	for l, v := range byLayer {
		shares[l] = float64(v) / float64(total)
	}
	return shares
}
