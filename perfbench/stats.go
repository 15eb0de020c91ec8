package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"syscall"
	"unsafe"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// nearestRank returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// geomean returns the geometric mean of positive xs; 0 if xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// digest hashes the printed form of a cell's simulated outputs. Every
// value it sees derives from virtual time and seeded streams, so two
// repetitions with the same seed must produce the same digest.
func digest(vs ...interface{}) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v|", v)
	}
	return h.Sum64()
}

// peakRSSMB reports the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID):
// the CPU time of all its threads, in seconds. The benchmark times its
// phases on this clock rather than the wall clock, because on a shared
// host the wall time of a one-P process also counts the time it waits for
// a CPU, which depends on the other tenants and not on the program.
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", errno))
	}
	return float64(ts.Sec) + float64(ts.Nsec)*1e-9
}
