package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped protobuf,
// profile.proto) with just enough of a decoder to attribute every sample's
// CPU time to one of the repository's modules.

// Buckets that are not a repository module.
const (
	bucketGC    = "runtime.gc" // garbage collector work, wherever it ran
	bucketOther = "other"      // no repository frame: the benchmark itself, net/http, the scheduler
)

// profSample is one stack with its CPU time. frames runs from the leaf
// outwards, inlined callees before the function they were inlined into.
type profSample struct {
	frames []string
	nanos  int64
}

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next reads one field: its number and wire type, and either its varint
// value (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped with their payload.
func (r *pbReader) next() (num int, wire int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = r.varint()
	case 1, 5:
		size := 8
		if wire == 5 {
			size = 4
		}
		if len(r.b) < size {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[size:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, val, data, err
}

// uints decodes a repeated integer field that may be packed (wire type 2)
// or not (wire type 0), appending to dst.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// eachField calls fn for every field of msg.
func eachField(msg []byte, fn func(num, wire int, val uint64, data []byte) error) error {
	r := pbReader{msg}
	for len(r.b) > 0 {
		num, wire, val, data, err := r.next()
		if err != nil {
			return err
		}
		if err := fn(num, wire, val, data); err != nil {
			return err
		}
	}
	return nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile into stacks with
// their CPU nanoseconds.
func parseCPUProfile(raw []byte) ([]profSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs       []string
		sampleType [][2]uint64 // (type, unit) string indices
		rawSamples [][2][]uint64
		funcName   = map[uint64]uint64{} // function id -> name string index
		locFuncs   = map[uint64][]uint64{}
	)
	err := eachField(raw, func(num, wire int, val uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			sampleType = append(sampleType, vt)
			return err
		case 2: // sample
			var s [2][]uint64
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				var err error
				if n == 1 || n == 2 {
					s[n-1], err = uints(s[n-1], w, v, d)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := -1
	for i, vt := range sampleType {
		if str(vt[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]profSample, 0, len(rawSamples))
	for _, s := range rawSamples {
		if valueIdx >= len(s[1]) {
			return nil, errors.New("profile: sample without a value")
		}
		var frames []string
		for _, loc := range s[0] {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, str(funcName[fn]))
			}
		}
		out = append(out, profSample{frames: frames, nanos: int64(s[1][valueIdx])})
	}
	return out, nil
}

// gcFramePrefixes mark a stack as garbage-collector work: the background
// mark workers, mutator assists, and the background sweeper and scavenger.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.bgscavenge",
}

// repoModule returns the repository module that function fn belongs to —
// the last element of its package path under module "yafim" ("facade" for
// the root package) — and whether it belongs to one.
func repoModule(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "yafim":
		return "facade", true
	case strings.HasPrefix(pkg, "yafim/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:], true
	}
	return "", false
}

// attribute names the bucket that owns a sample: GC work anywhere on the
// stack goes to bucketGC; otherwise the innermost frame in a repository
// module owns it (so runtime and standard-library work counts to its
// nearest repository caller, and an inlined callee to its own package);
// otherwise bucketOther.
func attribute(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return bucketGC
			}
		}
	}
	for _, f := range frames {
		if m, ok := repoModule(f); ok {
			return m
		}
	}
	return bucketOther
}

// selfTimes sums each bucket's CPU seconds over the samples, and returns
// the profile's total alongside.
func selfTimes(samples []profSample) (byBucket map[string]float64, total float64) {
	byBucket = map[string]float64{}
	var nanos int64
	for _, s := range samples {
		byBucket[attribute(s.frames)] += float64(s.nanos) / 1e9
		nanos += s.nanos
	}
	return byBucket, float64(nanos) / 1e9
}
