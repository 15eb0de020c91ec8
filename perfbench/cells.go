package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"

	"putget/internal/sim"
)

// A cell is one simulated experiment, built fresh every time it runs.
// setup is everything before the cell's first simulated event and is
// timed as set-up; the phases it returns are timed as the run and as
// verification.
type cell struct {
	name  string
	setup func(t *tally, obs sim.Observer) *phases
}

// phases are the parts of a cell after set-up. verify checks the cell's
// outputs, records its per-layer numbers in the tally and returns a
// digest of its simulated outputs; close releases the testbed.
type phases struct {
	run    func()
	verify func(t *tally) (uint64, error)
	close  func()
}

// tally collects one repetition's per-layer numbers.
type tally struct {
	sums map[string]float64   // counts and host seconds, summed over cells
	maxs map[string]float64   // high-water marks
	geo  map[string][]float64 // samples reported as a geometric mean
	lat  []float64            // kv request latencies in simulated us
}

func newTally() *tally {
	return &tally{sums: map[string]float64{}, maxs: map[string]float64{}, geo: map[string][]float64{}}
}

func (t *tally) add(name string, v float64) { t.sums[name] += v }

func (t *tally) max(name string, v float64) {
	if v > t.maxs[name] {
		t.maxs[name] = v
	}
}

func (t *tally) sample(name string, v float64) { t.geo[name] = append(t.geo[name], v) }

// timed runs f and adds its host CPU time in seconds to the named sum.
func (t *tally) timed(name string, f func()) {
	t0 := workCPU()
	f()
	t.add(name, workCPU()-t0)
}

// repStats is one repetition of a workload's cell list.
type repStats struct {
	setup, run, verify float64   // host CPU seconds (workCPU)
	allocs, allocBytes uint64    // heap allocations inside run phases
	cal                []float64 // calibration kernel times during the repetition
	t                  *tally
}

// runner executes repetitions and keeps the correctness ledger: every
// cell's digest from its first repetition, and the attempted and failed
// cell counts.
type runner struct {
	digests   map[string]uint64
	attempted int
	failed    int
	errs      []string
}

func newRunner() *runner { return &runner{digests: map[string]uint64{}} }

func (r *runner) fail(name string, err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
	}
}

// safe runs f and turns a panic into an error.
func safe(f func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	f()
	return nil
}

// pauseAbove is the heap size above which a traced repetition pauses its
// CPU profile while it collects the heap before a cell, so that
// collection is not attributed to the workload. Pausing costs up to
// 100 ms (the profile writer's poll), so smaller collections stay in the
// profile and count in go.gc_share: about 3% of a paper repetition's CPU
// time and 0.5% of a kvserve one's.
const pauseAbove = 64 << 20

// tracing is what a traced repetition installs: an observer handed to
// every cell, and a CPU profile that is paused while the benchmark
// collects a large heap between cells.
type tracing struct {
	obs   *aggObserver
	profs [][]byte
	cur   *bytes.Buffer
}

func (tr *tracing) resume() {
	tr.cur = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(tr.cur); err != nil {
		panic(fmt.Sprintf("perfbench: cpu profile: %v", err)) // only one profile runs at a time
	}
}

func (tr *tracing) pause() {
	pprof.StopCPUProfile()
	tr.profs = append(tr.profs, tr.cur.Bytes())
}

// rep runs every cell once. With setupOnly the cells are built and torn
// down without simulating; those passes only add set-up samples and are
// not counted as attempted cells. A nil tr runs untraced; otherwise the
// caller has started tr's profile.
func (r *runner) rep(cells []cell, tr *tracing, setupOnly bool) repStats {
	rs := repStats{t: newTally()}
	var obs sim.Observer
	if tr != nil {
		obs = tr.obs
	}
	var ms runtime.MemStats
	mark := cal.mark()
	for _, c := range cells {
		// Every cell starts from a collected heap, so no cell pays for
		// another's garbage (a 256-rank world leaves hundreds of MiB), and
		// the process's peak memory does not depend on where the
		// collector's own cycles fall between cells: left to its pacing,
		// kvserve's peak RSS moved by 15% from run to run.
		pause := false
		if tr != nil {
			runtime.ReadMemStats(&ms)
			pause = ms.HeapAlloc > pauseAbove
		}
		if pause {
			tr.pause()
		}
		runtime.GC()
		if pause {
			tr.resume()
		}
		r.cell(&rs, c, obs, setupOnly)
	}
	rs.cal = cal.since(mark)
	return rs
}

// cell runs one cell, adds its timings to rs and records its outcome.
func (r *runner) cell(rs *repStats, c cell, obs sim.Observer, setupOnly bool) {
	var ph *phases
	t0 := workCPU()
	err := safe(func() { ph = c.setup(rs.t, obs) })
	rs.setup += workCPU() - t0
	if err != nil {
		r.attempted++
		r.fail(c.name, err)
		return
	}
	defer func() { _ = safe(ph.close) }()
	if setupOnly {
		return
	}
	r.attempted++
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := workCPU()
	err = safe(ph.run)
	rs.run += workCPU() - t1
	runtime.ReadMemStats(&ms1)
	rs.allocs += ms1.Mallocs - ms0.Mallocs
	rs.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		r.fail(c.name, err)
		return
	}
	var d uint64
	var verr error
	t2 := workCPU()
	err = safe(func() { d, verr = ph.verify(rs.t) })
	rs.verify += workCPU() - t2
	if err == nil {
		err = verr
	}
	if err == nil {
		if prev, ok := r.digests[c.name]; !ok {
			r.digests[c.name] = d
		} else if prev != d {
			err = fmt.Errorf("digest %016x differs from an earlier repetition's %016x", d, prev)
		}
	}
	if err != nil {
		r.fail(c.name, err)
	}
}
