package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the repository's modules as the benchmark reports them,
// in report order. Every profile sample is charged to exactly one.
var layers = []string{
	"sm", "sim_loop", "icnt", "dram", "coalesce", "kernels", "attack",
	"journal", "runner", "dist", "experiments", "runtime", "bench",
}

// pkgLayer maps repository packages to layers. gpusim and experiments
// are split further by function and file in layerOf.
var pkgLayer = map[string]string{
	"rcoal/internal/gpusim":          "sim_loop",
	"rcoal/internal/gpusim/mem":      "sim_loop",
	"rcoal/internal/gpusim/cache":    "sim_loop",
	"rcoal/internal/gpusim/tracevis": "sim_loop",
	"rcoal/internal/metrics":         "sim_loop",
	"rcoal/internal/gpusim/icnt":     "icnt",
	"rcoal/internal/ringbuf":         "icnt",
	"rcoal/internal/gpusim/dram":     "dram",
	"rcoal/internal/core":            "coalesce",
	"rcoal/internal/mechanism":       "coalesce",
	"rcoal/internal/rng":             "coalesce",
	"rcoal/internal/kernels":         "kernels",
	"rcoal/internal/aes":             "kernels",
	"rcoal/internal/aesgpu":          "kernels",
	"rcoal/internal/attack":          "attack",
	"rcoal/internal/stats":           "attack",
	"rcoal/internal/theory":          "attack",
	"rcoal/internal/amath":           "attack",
	"rcoal/internal/checkpoint":      "journal",
	"rcoal/internal/atomicio":        "journal",
	"rcoal/internal/runner":          "runner",
	"rcoal/internal/dist":            "dist",
	"rcoal/internal/chaos":           "dist",
	"rcoal/internal/obs":             "dist",
	// Only the fleet's lease protocol speaks HTTP, and the server's
	// connection goroutines and the client transport's read and write
	// loops run with no repository frame on their stacks.
	"net/http":                   "dist",
	"net":                        "dist",
	"rcoal/internal/experiments": "experiments",
	"rcoal/internal/report":      "experiments",
	"main":                       "bench",
	"rcoal/bench":                "bench", // the package's name inside its test binary
}

// smFuncs are the SM issue stage of gpusim: warp selection, issue, and
// retirement. The rest of the package is the simulation loop.
var smFuncs = map[string]bool{
	"stepSMs": true, "issueOne": true, "tryIssue": true, "delayIssue": true,
	"issueShared": true, "sharedConflictDegree": true, "issueMemory": true,
	"planFor": true, "settle": true, "retire": true,
}

// layerOf names the layer a frame belongs to, or "" for code outside
// the repository and the Go runtime (the standard library), whose cost
// is charged to the nearest caller that has a layer. System calls are
// charged to their caller too: internal/runtime/syscall is the leaf of
// every write, fsync and socket operation, and the runtime's
// entersyscall and exitsyscall bracket each one.
func layerOf(fn, file string) string {
	pkg, name := splitFunc(fn)
	switch {
	case pkg == "internal/runtime/syscall",
		pkg == "runtime" && (strings.HasPrefix(name, "entersyscall") || strings.HasPrefix(name, "exitsyscall") || name == "reentersyscall"):
		return ""
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	layer := pkgLayer[pkg]
	switch {
	case layer == "sim_loop" && pkg == "rcoal/internal/gpusim" && smFuncs[name]:
		return "sm"
	case layer == "experiments" && strings.HasSuffix(file, "/experiments/journal.go"):
		return "journal"
	}
	return layer
}

// splitFunc splits a symbol such as
// "rcoal/internal/gpusim.(*GPU).issueOne.func1" into its package path
// and the first element of its name ("issueOne").
func splitFunc(fn string) (pkg, name string) {
	head := fn // type arguments may hold package paths of their own
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+1+dot+1:]
	if strings.HasPrefix(rest, "(") {
		if i := strings.Index(rest, ")."); i >= 0 {
			rest = rest[i+2:]
		}
	}
	if i := strings.IndexAny(rest, ".["); i >= 0 {
		rest = rest[:i]
	}
	return pkg, rest
}

// layerTimes decodes one pprof CPU profile and charges each sample's
// CPU time to the leaf-most frame that belongs to a layer. Samples
// with no such frame (none, in practice: every goroutine starts in the
// runtime) count as runtime. The result is in seconds per layer.
func layerTimes(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		layer := ""
	frames:
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				f := p.functions[fid]
				if layer = layerOf(p.str(f.name), p.str(f.file)); layer != "" {
					break frames
				}
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		out[layer] += float64(s.cpuNanos) / 1e9
	}
	return out, nil
}

// profile is the subset of the pprof protobuf (profile.proto) that
// layer attribution needs.
type profile struct {
	strings   []string
	functions map[uint64]function
	// locations maps a location id to its function ids, leaf-most
	// (innermost inlined) first.
	locations map[uint64][]uint64
	samples   []sample
}

type function struct{ name, file int64 }

type sample struct {
	locs     []uint64 // leaf first
	cpuNanos int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzipped (or raw) pprof protobuf.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{functions: map[uint64]function{}, locations: map[uint64][]uint64{}}
	var sampleTypes []int64 // string indexes of the sample value types
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var raws []rawSample
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1 // which sample value is CPU nanoseconds
	for i, typ := range sampleTypes {
		if p.str(typ) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	for _, s := range raws {
		if cpu >= len(s.values) {
			return nil, errors.New("sample is missing its cpu value")
		}
		p.samples = append(p.samples, sample{locs: s.locs, cpuNanos: s.values[cpu]})
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields, which profile.proto does not use, are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
