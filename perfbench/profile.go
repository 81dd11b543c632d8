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

// This file reads the gzipped pprof protobuf that runtime/pprof writes and
// splits its CPU samples across the simulator's layers. It uses only the
// standard library: the profile schema needs a handful of fields, so a
// small protobuf walker is enough.

// simLayers are the simulator's packages that get a bucket of their own.
var simLayers = []string{"des", "mpi", "pvfs", "romio", "core", "search", "obs", "causal", "adapt", "fault"}

// layers are the attribution buckets, in report order. Every sample lands
// in exactly one of them.
var layers = append(append([]string(nil), simLayers...), "runtime.gc", "runtime.other")

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "s3asim/internal/"

// layerOfFunc maps a function name to its layer, or "" when the function
// is not in one of the simulator's layer packages. The stats package (the
// workload's RNG and histogram helper) is folded into search.
func layerOfFunc(name string) string {
	rest, ok := strings.CutPrefix(name, modulePrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	if pkg == "stats" {
		return "search"
	}
	for _, l := range simLayers {
		if pkg == l {
			return pkg
		}
	}
	return ""
}

// gcRoots are the runtime functions at the base of the garbage collector's
// background goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOfStack attributes one sample, given its frames innermost first: the
// innermost frame in a simulator layer wins; otherwise the sample is GC
// background work or other runtime/benchmark time.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		if l := layerOfFunc(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		for _, g := range gcRoots {
			if f == g {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// cpuSample is one decoded sample: its stack (innermost frame first, inlined
// frames expanded) and its CPU time.
type cpuSample struct {
	frames []string
	count  int64 // samples
	nanos  int64 // CPU nanoseconds
}

// cpuProfile is the part of a CPU profile the attribution needs.
type cpuProfile struct {
	samples []cpuSample
}

// layerNanos sums CPU nanoseconds per layer.
func (p *cpuProfile) layerNanos() map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		out[layerOfStack(s.frames)] += s.nanos
	}
	return out
}

// merge appends q's samples to p.
func (p *cpuProfile) merge(q *cpuProfile) {
	p.samples = append(p.samples, q.samples...)
}

// Field numbers of the pprof profile.proto messages used here.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseCPUProfile decodes a gzipped (or raw) pprof CPU profile. The CPU
// profile's sample values are [samples/count, cpu/nanoseconds].
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err := walk(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profStringTable:
			strs = append(strs, string(b))
		case profSample:
			var s rawSample
			err := walk(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case sampleLocationID:
					s.locs = appendVarints(s.locs, wire, v, b)
				case sampleValue:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case locationID:
					id = v
				case locationLine:
					return walk(b, func(field, wire int, v uint64, _ []byte) error {
						if field == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walk(b, func(field, wire int, v uint64, _ []byte) error {
				switch field {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample lacks [count, nanoseconds] values")
		}
		cs := cpuSample{count: s.values[0], nanos: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				cs.frames = append(cs.frames, strs[idx])
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// appendVarints appends a repeated scalar field's values, packed (wire type
// 2) or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walk calls fn for every field of one protobuf message. Varint fields
// pass their value in v; length-delimited fields pass their bytes in b.
// Fixed-width fields are skipped (the CPU profile uses none that matter).
func walk(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
