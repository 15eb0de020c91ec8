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

// This file attributes a runtime/pprof CPU profile to the simulator's
// layers. It decodes the gzipped profile.proto directly (the standard
// library has no reader for it) and reads only samples, locations,
// functions and the string table.

// shareModules are the putget/internal packages given their own share.
// CPU samples whose leaf frame lies in any other package count as other,
// except Go runtime frames, which are split into the go.* buckets.
var shareModules = []string{
	"sim", "gpusim", "topo", "cluster", "shmem", "kv", "pcie", "memspace",
	"extoll", "ibsim", "core", "hostsim", "transport", "wire", "bench", "faults",
}

// Runtime buckets, tried in this order against every frame of a sample
// whose leaf is in the runtime: GC work that a malloc assists with counts
// as GC, and a malloc that parks counts as malloc.
var runtimeBuckets = []struct {
	name     string
	prefixes []string
}{
	{"go.gc_share", []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
		"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.wbBufFlush",
		"runtime.(*mheap).reclaim", "runtime.(*gcControllerState)",
	}},
	{"go.malloc_share", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap).alloc", "runtime.rawstring", "runtime.concatstring", "runtime.slicebytetostring",
	}},
	{"go.sched_share", []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.execute", "runtime.goexit", "runtime.newproc",
		"runtime.casgstatus", "runtime.runq", "runtime.usleep", "runtime.osyield", "runtime.gogo",
		"runtime.mPark", "runtime.sysmon", "runtime.send", "runtime.recv", "runtime.lock", "runtime.unlock",
	}},
}

// shareNames lists every share metric attribute reports, in output order.
func shareNames() []string {
	var out []string
	for _, m := range shareModules {
		out = append(out, m+".share")
	}
	for _, b := range runtimeBuckets {
		out = append(out, b.name)
	}
	return append(out, "go.runtime_other_share", "other.share")
}

// attribute returns the fraction of CPU samples per share metric over
// all the given profiles; the fractions sum to 1.
func attribute(profs [][]byte) (map[string]float64, error) {
	counts := map[string]float64{}
	total := 0.0
	for _, prof := range profs {
		stacks, weights, err := decodeProfile(prof)
		if err != nil {
			return nil, err
		}
		for i, st := range stacks {
			counts[bucketOf(st)] += weights[i]
			total += weights[i]
		}
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	out := map[string]float64{}
	for _, name := range shareNames() {
		out[name] = counts[name] / total
	}
	return out, nil
}

// bucketOf names the share metric of one stack (leaf first).
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other.share"
	}
	leaf := stack[0]
	if rest, ok := strings.CutPrefix(leaf, "putget/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, m := range shareModules {
			if m == mod {
				return m + ".share"
			}
		}
		return "other.share"
	}
	if !strings.HasPrefix(leaf, "runtime.") && !strings.HasPrefix(leaf, "runtime/internal/") && !strings.HasPrefix(leaf, "internal/runtime/") {
		return "other.share"
	}
	for _, b := range runtimeBuckets {
		for _, fn := range stack {
			for _, p := range b.prefixes {
				if strings.HasPrefix(fn, p) {
					return b.name
				}
			}
		}
	}
	return "go.runtime_other_share"
}

// decodeProfile returns each sample's stack of function names (leaf
// first, inlined frames expanded) and its sample count.
func decodeProfile(prof []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, v, b); err != nil {
						return err
					}
					if len(vals) > 0 && s.n == 0 {
						s.n = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if idx := fnName[fn]; idx >= 0 && int(idx) < len(strs) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		weights[i] = float64(s.n)
	}
	return stacks, weights, nil
}

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(buf []byte, f func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: truncated field")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", typ)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (b non-nil) or not.
func appendUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
