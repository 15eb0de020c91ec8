// Command perfbench is the simulator's same-machine A/B benchmark. It
// drives the public entry points of the simulator's packages from
// outside, times them in host seconds, checks every simulated cell, and
// prints one JSON result line. See README.md for the workloads and
// metrics.
//
//	perfbench --workload kvserve|collectives256|paper --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupOnlyPasses build and tear down every cell this many times before
// the timed repetitions, so even the slowest workload reports set-up as
// a median of several samples.
const setupOnlyPasses = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: kvserve, collectives256 or paper")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	flag.Parse()
	cellsFor, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload kvserve|collectives256|paper, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	// One simulation runs at a time and its engine runs one goroutine at
	// a time, so a cell needs one P. With more, every proc handoff may
	// wake another CPU, and the host's wake-up latency, not simulator
	// work, sets the run-to-run spread.
	runtime.GOMAXPROCS(1)
	fmt.Printf("perfbench: workload %s, seed %d, %g s, trace %d, GOMAXPROCS 1\n",
		*workload, *seed, *seconds, *trace)

	r := newRunner()
	var metrics, guard map[string]metric
	if *trace == 0 {
		metrics, guard = endToEnd(r, cellsFor(*seed), *seconds)
	} else {
		var err error
		metrics, err = perLayer(r, *workload, *seed, cellsFor(*seed), *seconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	for _, e := range r.errs {
		fmt.Printf("FAILED %s\n", e)
	}
	printMetrics(metrics)
	if guard != nil {
		fmt.Println("simulated results (the guard a speed-only change leaves unchanged; not on the result line):")
		for name, v := range guard {
			if v.Value == 0 {
				delete(guard, name) // a result of another workload
			}
		}
		printMetrics(guard)
	}
	fmt.Printf("cells: %d failed of %d attempted\n", r.failed, r.attempted)
	line, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// repeat runs untraced repetitions until the next one would end after
// budget seconds from start, but at least min of them, so every cell's
// digest is compared across repetitions.
func repeat(r *runner, cells []cell, start time.Time, budget float64, min int) []repStats {
	var reps []repStats
	for {
		t0 := time.Now()
		reps = append(reps, r.rep(cells, nil, false))
		last := time.Since(t0).Seconds()
		rs := reps[len(reps)-1]
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: run %.4f CPU s, calibration kernel %d runs, median %.4f ms, repetition %.3f wall s\n",
			len(reps), rs.run, len(rs.cal), median(rs.cal)*1e3, last)
		if len(reps) >= min && time.Since(start).Seconds()+last > budget {
			return reps
		}
	}
}

func field(reps []repStats, f func(repStats) float64) []float64 {
	out := make([]float64, len(reps))
	for i, rs := range reps {
		out[i] = f(rs)
	}
	return out
}

func runS(rs repStats) float64 { return rs.run }

// endToEnd measures untraced repetitions: host set-up and run CPU time as
// medians over repetitions, rescaled by the calibration kernel's times
// (calibrate.go), and peak memory. Set-up is rescaled by the kernel's
// median over the whole run, each repetition's run by its median over
// that repetition. It also returns the first repetition's simulated
// results.
func endToEnd(r *runner, cells []cell, seconds float64) (metrics, guard map[string]metric) {
	start := time.Now()
	cal.start()
	var setups []float64
	for i := 0; i < setupOnlyPasses; i++ {
		setups = append(setups, r.rep(cells, nil, true).setup)
	}
	reps := repeat(r, cells, start, seconds, 2)
	cal.halt()
	setups = append(setups, field(reps, func(rs repStats) float64 { return rs.setup })...)
	f := cal.factor(nil)
	fmt.Printf("measured CPU s (medians): setup %.6g, run %.6g; calibration kernel: %d runs, median %.4g ms\n",
		median(setups), median(field(reps, runS)), len(cal.since(0)), calibrationRefS/f*1e3)
	metrics = map[string]metric{
		"setup_s":     {median(setups) * f, "s"},
		"run_s":       {median(field(reps, func(rs repStats) float64 { return rs.run * cal.factor(rs.cal) })), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	return metrics, simulated(reps[0].t)
}

// simulated returns the deterministic virtual-time results of one
// repetition; the metrics a workload does not produce are 0.
func simulated(t *tally) map[string]metric {
	m := map[string]metric{
		"vt_p50_us":  {nearestRank(t.lat, 0.50), "sim_us"},
		"vt_p99_us":  {nearestRank(t.lat, 0.99), "sim_us"},
		"kv.samples": {float64(len(t.lat)), "count"},
	}
	for name, unit := range map[string]string{
		"vt_allreduce_us":  "sim_us",
		"vt_half_rtt_us":   "sim_us",
		"vt_bandwidth_mbs": "sim_MB/s",
		"vt_msg_rate_mps":  "sim_Mmsg/s",
		"vt_put_us":        "sim_us",
		"vt_get_us":        "sim_us",
	} {
		m[name] = metric{geomean(t.geo[name]), unit}
	}
	return m
}

// perLayer runs the microbenchmarks, untraced repetitions for the
// deterministic counts, the tracing baseline and the calibration, then as
// many traced repetitions under a CPU profile and an aggregating observer.
func perLayer(r *runner, workload string, seed uint64, cells []cell, seconds float64) (map[string]metric, error) {
	m := map[string]metric{}
	micros := microbenchmarks(seed)
	start := time.Now()
	cal.start()
	plain := repeat(r, cells, start, 0.45*seconds, 1)
	cal.halt()
	// Host times are CPU seconds rescaled by the calibration kernel's
	// median over the untraced repetitions, as on the end-to-end metrics.
	f := cal.factor(nil)
	for name, res := range micros {
		m[name+"_ns"] = metric{res.ns * f, "ns"}
		m[name+"_allocs"] = metric{res.allocs, "allocs/op"}
	}

	tr := &tracing{obs: newAggObserver()}
	tr.resume()
	var traced []repStats
	for len(traced) < len(plain) {
		traced = append(traced, r.rep(cells, tr, false))
	}
	tr.pause()
	shares, err := attribute(tr.profs)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		m[name] = metric{v, "frac"}
	}

	t := plain[0].t
	if workload == "kvserve" {
		probe := r.rep(retxProbeCells(seed), nil, false)
		for name, v := range probe.t.sums {
			t.add(name, v)
		}
	}
	runMed := median(field(plain, runS)) * f
	events := t.sums["sim.events"]
	count := func(name string) { m[name] = metric{t.sums[name], "count"} }
	for _, name := range []string{
		"sim.events", "gpusim.instr", "gpusim.l2_requests", "gpusim.sysmem_reads",
		"topo.route_memo_hits", "cluster.built_nodes", "shmem.conns",
		"kv.retries", "kv.timeouts", "pcie.posted_writes", "pcie.reads", "pcie.bulk_reads",
		"extoll.retransmits", "ibsim.retransmits",
	} {
		count(name)
	}
	m["sim.ns_per_event"] = metric{ratio(runMed*1e9, events), "ns"}
	m["go.allocs"] = metric{median(field(plain, func(rs repStats) float64 { return float64(rs.allocs) })), "count"}
	m["go.alloc_mb"] = metric{median(field(plain, func(rs repStats) float64 { return float64(rs.allocBytes) })) / (1 << 20), "MB"}
	m["gpusim.l2_hit_ratio"] = metric{ratio(t.sums["gpusim.l2_read_hits"], t.sums["gpusim.l2_read_requests"]), "frac"}
	m["topo.hops_mean"] = metric{ratio(t.sums["topo.hops"], t.sums["topo.pairs"]), "hops"}
	m["topo.max_depth"] = metric{t.maxs["topo.max_depth"], "count"}
	m["wire.max_depth"] = metric{tr.obs.maxMetric(".wire", "depth"), "count"}
	m["cluster.build_s"] = metric{median(field(plain, func(rs repStats) float64 { return rs.t.sums["cluster.build_s"] })) * f, "s"}
	m["shmem.plan_s"] = metric{median(field(plain, func(rs repStats) float64 { return rs.t.sums["shmem.plan_s"] })) * f, "s"}
	m["kv.useful_frac"] = metric{ratio(t.sums["kv.ok"], t.sums["kv.requests"]+t.sums["kv.retries"]), "frac"}
	m["kv.quorum_vt_us"] = metric{tr.obs.meanUs("a.kv", "kv.quorum"), "sim_us"}
	m["kv.route_vt_us"] = metric{tr.obs.meanUs("a.kv", "kv.route"), "sim_us"}
	m["bench.verify_s"] = metric{median(field(plain, func(rs repStats) float64 { return rs.verify })) * f, "s"}
	m["trace.overhead_frac"] = metric{median(field(traced, runS))*f/runMed - 1, "frac"}
	for name, v := range simulated(t) {
		m[name] = v
	}
	return m, nil
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never uses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}
