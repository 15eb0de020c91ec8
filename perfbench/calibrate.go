package main

import (
	"math"
	"sync"
	"time"
)

// The benchmark shares its host with other tenants, whose load changes
// what a CPU second buys by up to about a factor of two over hours (the
// same collectives256 repetition took 5.5 s in one hour and 10 s in
// another). CPU time removes the time spent waiting for a CPU, but not
// that. So while the untraced cells run, a sampler goroutine times a fixed
// reference kernel every calibrationEvery of wall time, and the
// end-to-end times are rescaled by the kernel's median time over the same
// stretch of the run:
//
//	reported = measured CPU seconds × (calibrationRefS / median(kernel CPU seconds))^calibrationPower
//
// that is, in seconds of a host on which the kernel takes calibrationRefS.
// The kernel's own CPU time is taken out of the cells' (workCPU). It is
// the benchmark's own code, so no change to the simulator moves it. It
// mixes what the simulator spends its time on: a chain of dependent loads
// and stores through a small table of nodes (one random cycle, in cache),
// lookups in a map of a few thousand keys, interface calls and goroutine
// handoffs. It allocates nothing and its tables hold no pointers, so it
// neither triggers nor lengthens a garbage collection. README.md gives
// how closely it followed the repetition times.

// calibrationRefS is the kernel's CPU time on an unloaded 2-vCPU x86-64
// host (2.1 GHz Xeon, Go 1.24). Any constant would do for A/B comparisons;
// this one keeps the reported seconds close to measured ones.
const calibrationRefS = 0.002

// calibrationPower is how steeply the simulator's CPU time grows with the
// kernel's when the host slows: the kernel runs in cache and slows less.
// Regressing log repetition time on log kernel time over sets of ten runs
// gave slopes of 1.1 to 1.55, the steepest in the noisiest hour, where the
// kernel's times varied most and their own noise flattened the fit least.
// README.md gives the spreads this gave.
const calibrationPower = 1.5

// calibrationEvery is the wall time between kernel runs; at about 2 ms a
// run the kernel takes some 2% of the CPU.
const calibrationEvery = 100 * time.Millisecond

const (
	calNodes = 256
	calKeys  = 1 << 13
	calSteps = 50000
)

type calNode struct {
	next uint32
	key  uint64
	val  [6]uint64
}

type calStepper interface{ step(uint64) uint64 }

type calAdd struct{ m uint64 }
type calXor struct{ m uint64 }

func (a *calAdd) step(x uint64) uint64 { a.m += x; return a.m ^ x }
func (a *calXor) step(x uint64) uint64 { a.m ^= x; return a.m + x }

var (
	calTable    = make([]calNode, calNodes)
	calMap      = make(map[uint64]uint64, calKeys)
	calSteppers = []calStepper{&calAdd{}, &calXor{}}
	calPing     = make(chan uint64)
	calPong     = make(chan uint64)
	calSink     uint64
)

func init() {
	// Sattolo's shuffle: the successors form one cycle through every node.
	x := uint64(0x9e3779b97f4a7c15)
	for i := range calTable {
		calTable[i].next = uint32(i)
	}
	for i := calNodes - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		calTable[i].next, calTable[j].next = calTable[j].next, calTable[i].next
		calTable[i].key = x
	}
	for i := uint64(0); i < calKeys; i++ {
		calMap[i*7919] = i
	}
	go func() {
		for v := range calPing {
			calPong <- v + 1
		}
	}()
}

// calibrationKernel does a fixed amount of work and returns its CPU time.
func calibrationKernel() float64 {
	t0 := cpuSeconds()
	n := uint32(0)
	var acc uint64
	for s := 0; s < calSteps; s++ {
		nd := &calTable[n]
		n = nd.next
		acc += nd.key
		nd.val[s&3] += acc
		acc ^= calMap[(acc&(calKeys-1))*7919]
		acc = calSteppers[acc&1].step(acc)
		if s&63 == 0 {
			calPing <- acc
			acc = <-calPong
		}
	}
	calSink += acc
	return cpuSeconds() - t0
}

// cal is the run's calibration sampler.
var cal calibration

// calibration runs the kernel on a sampler goroutine and keeps its times.
type calibration struct {
	mu      sync.Mutex
	samples []float64
	spent   float64 // kernel CPU seconds so far
	stop    chan struct{}
	done    chan struct{}
}

// start starts the sampler; stop stops it and waits for it to end.
func (c *calibration) start() {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func(stop <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		tick := time.NewTicker(calibrationEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			d := calibrationKernel()
			c.mu.Lock()
			c.samples = append(c.samples, d)
			c.spent += d
			c.mu.Unlock()
		}
	}(c.stop, c.done)
}

func (c *calibration) halt() {
	close(c.stop)
	<-c.done
}

// mark returns the number of samples so far; since returns the samples
// taken after a mark.
func (c *calibration) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

func (c *calibration) since(mark int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.samples[mark:]...)
}

// workCPU is the process CPU clock less the kernel's CPU time: the clock
// every cell is timed on.
func workCPU() float64 {
	cal.mu.Lock()
	defer cal.mu.Unlock()
	return cpuSeconds() - cal.spent
}

// factor is calibrationRefS over the median of samples, or over the
// median of all samples when samples is empty, to calibrationPower: the
// number measured CPU seconds are multiplied by.
func (c *calibration) factor(samples []float64) float64 {
	if len(samples) == 0 {
		samples = c.since(0)
	}
	if len(samples) == 0 {
		return 1
	}
	return math.Pow(calibrationRefS/median(samples), calibrationPower)
}
