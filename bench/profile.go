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

// profileLayers are the fsmem packages a CPU profile is folded into, each
// reported as <layer>.self_frac. Samples whose leaf is in another fsmem
// package, or in the benchmark itself, fold into "misc"; the rest of the
// standard library folds into "stdlib".
var profileLayers = []string{
	"sched", "core", "dram", "fault", "cpu", "sim", "mem", "workload", "trace",
	"stats", "experiments", "server", "audit", "leakage", "misc", "stdlib",
}

// Runtime buckets: allocation, garbage collection, and the rest
// (scheduler, idle, syscalls).
const (
	bucketMalloc  = "runtime.malloc"
	bucketGC      = "runtime.gc"
	bucketRuntime = "runtime.other"
)

// cpuSample is one stack of a CPU profile with the CPU time charged to it.
type cpuSample struct {
	weight int64
	stack  []string // function names, leaf first, inlined frames expanded
}

// foldProfile folds samples into shares of total CPU time per bucket:
// every profile layer plus the three runtime buckets. A sample counts as
// runtime.gc when any frame belongs to the collector (background mark
// workers, mark assists, sweeping), else as runtime.malloc when any frame
// is mallocgc or growslice or the leaf is a memclr variant. Other runtime
// helpers at the leaf (memmove, duffcopy, map access, ...) are charged to
// the first non-runtime caller, so a struct copy inside the scheduler is
// scheduler time; stacks made only of runtime frames are runtime.other.
// The shares sum to 1 whenever the profile holds any sample.
func foldProfile(samples []cpuSample) map[string]float64 {
	shares := map[string]float64{bucketMalloc: 0, bucketGC: 0, bucketRuntime: 0}
	for _, l := range profileLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		shares[sampleBucket(s.stack)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}

func sampleBucket(stack []string) string {
	malloc := false
	for i, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.wbBuf"):
			return bucketGC
		case fn == "runtime.mallocgc", fn == "runtime.growslice",
			i == 0 && strings.HasPrefix(fn, "runtime.memclr"):
			malloc = true
		}
	}
	if malloc {
		return bucketMalloc
	}
	for _, fn := range stack {
		if pkg := pkgOf(fn); !runtimeHelper(pkg) {
			return layerOf(pkg)
		}
	}
	return bucketRuntime
}

// pkgOf returns the import path of the package a profiled function name
// belongs to: "fsmem/internal/sched.(*Baseline).serve" -> "fsmem/internal/sched".
func pkgOf(fn string) string {
	// Compiler-generated equality functions name the type they compare.
	fn = strings.TrimPrefix(fn, "type:.eq.")
	// Type arguments of generic instantiations may contain dots and slashes.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func runtimeHelper(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg"
}

// layerOf maps a non-runtime package to its profile layer.
func layerOf(pkg string) string {
	if pkg == "main" || pkg == "fsmem" || strings.HasPrefix(pkg, "fsmem/") {
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "fsmem/internal/"), "/")
		for _, l := range profileLayers {
			if name == l {
				return l
			}
		}
		return "misc"
	}
	return "stdlib"
}

// parseProfile decodes a runtime/pprof CPU profile: a gzipped
// profile.proto message. Only the fields folding needs are read — sample
// stacks and values, locations, functions, and the string table — so the
// benchmark needs no profile library.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs, vals []uint64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walkProto(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := walkProto(b, func(num int, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walkProto(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{weight: int64(s.vals[len(s.vals)-1])} // cpu/nanoseconds
		for _, l := range s.locs {
			for _, f := range locs[l] {
				name := "?"
				if i := funcs[f]; i < uint64(len(strs)) {
					name = strs[i]
				}
				cs.stack = append(cs.stack, name)
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// walkProto calls fn for each field of one protobuf message: v holds
// varint and fixed-width values, b the bytes of length-delimited ones.
func walkProto(buf []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errProto
			}
			buf = buf[w:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
