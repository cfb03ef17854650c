package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU-profile sample: its stack as function names, leaf
// first (inlined frames included), and the CPU nanoseconds it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs. The standard library has no
// public decoder, and the benchmark adds no dependencies.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		rawSample []struct{ locs, vals []uint64 }
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s struct{ locs, vals []uint64 }
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return repeated(v, b, &s.locs)
				case 2:
					return repeated(v, b, &s.vals)
				}
				return nil
			})
			rawSample = append(rawSample, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(rawSample))
	for _, s := range rawSample {
		if len(s.vals) == 0 {
			continue
		}
		// Values are [samples, cpu nanoseconds].
		cs := cpuSample{ns: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field number and
// either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field, packed or not.
func repeated(v uint64, data []byte, dst *[]uint64) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "shardmanager/internal/"

// attribution is the measured window's CPU time by module and by path.
type attribution struct {
	samples  int
	totalNS  int64
	moduleNS map[string]int64
	pathNS   map[string]int64
}

// Path buckets, in the order the report prints them.
var pathNames = []string{"request", "publish", "allocate", "control", "kernel", "gc", "audit", "bench", "other"}

// attribute charges each sample to the innermost internal/<module> frame
// on its stack, so runtime and standard-library callees count toward their
// caller. GC background workers get their own runtime.gc bucket, and frames
// of the benchmark's own package (main) the stackbench bucket.
//
// Independently, it sorts each sample into a path by what its stack is
// doing: publishing a map, allocating, serving a request, other control
// work, or the kernel itself.
func attribute(samples []cpuSample) *attribution {
	a := &attribution{moduleNS: map[string]int64{}, pathNS: map[string]int64{}}
	for _, s := range samples {
		a.samples++
		a.totalNS += s.ns
		mod := moduleOf(s.stack)
		a.moduleNS[mod] += s.ns
		a.pathNS[pathOf(mod, s.stack)] += s.ns
	}
	return a
}

func moduleOf(stack []string) string {
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		// The benchmark's own package is main in its binary and its
		// import path in its test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "shardmanager/stackbench.") {
			return "stackbench"
		}
	}
	return "other"
}

func pathOf(mod string, stack []string) string {
	switch mod {
	case "runtime.gc":
		return "gc"
	case "stackbench":
		return "bench"
	case "audit":
		return "audit"
	case "other":
		return "other"
	}
	has := func(prefixes ...string) bool {
		for _, fn := range stack {
			for _, p := range prefixes {
				if strings.HasPrefix(fn, internalPrefix+p) {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("orchestrator.(*Orchestrator).publish", "discovery."):
		return "publish"
	case has("orchestrator.(*Orchestrator).allocate", "allocator.", "solver."):
		return "allocate"
	case has("routing.", "apps.", "appserver.(*Server).Serve", "appserver.(*Server).serve",
		"appserver.(*Server).handle", "appserver.(*Server).forward"):
		return "request"
	case has("orchestrator.", "coord.", "cluster.", "taskcontroller.", "appserver.", "shard."):
		return "control"
	case has("sim."):
		return "kernel"
	}
	return "other"
}
