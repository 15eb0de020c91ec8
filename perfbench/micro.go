package main

import (
	"runtime"

	"putget/internal/cluster"
	"putget/internal/faults"
	"putget/internal/gpusim"
	"putget/internal/sim"
	"putget/internal/topo"
	"putget/internal/wire"
)

// Per-layer microbenchmarks: each times n operations of one public
// function. A trial builds its fixture, then times the operations on the
// process CPU clock; the reported ns/op is the median of microTrials
// trials and allocs/op comes from the same trials' heap allocation counts.

const microTrials = 5

type microResult struct{ ns, allocs float64 }

// micro runs trials of body, which builds its fixture and returns the
// function that performs n operations.
func micro(n int, body func() func()) microResult {
	var ns, allocs []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < microTrials; i++ {
		op := body()
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := cpuSeconds()
		op()
		el := cpuSeconds() - t0
		runtime.ReadMemStats(&ms1)
		ns = append(ns, el*1e9/float64(n))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
	}
	return microResult{median(ns), median(allocs)}
}

// microbenchmarks returns ns/op and allocs/op per microbenchmark name.
func microbenchmarks(seed uint64) map[string]microResult {
	p := cluster.Default()
	out := map[string]microResult{}
	noop := func() {}

	// Engine.At + Run over a heap of n events at seeded times.
	const nEvents = 200_000
	times := make([]sim.Time, nEvents)
	rng := faults.NewSplitmix64(faults.DeriveSeed(seed, 0xC001))
	for i := range times {
		times[i] = sim.Time(rng.Next() % nEvents)
	}
	out["sim.schedule"] = micro(nEvents, func() func() {
		e := sim.NewEngine()
		return func() {
			for _, t := range times {
				e.At(t, noop)
			}
			e.Run()
		}
	})

	// AfterTimer + Cancel against 1024 pending events.
	const nTimers = 200_000
	out["sim.timer"] = micro(nTimers, func() func() {
		e := sim.NewEngine()
		for i := 0; i < 1024; i++ {
			e.At(sim.Time(1_000_000+i), noop)
		}
		return func() {
			for i := 0; i < nTimers; i++ {
				e.AfterTimer(sim.Duration(1+i%4096), noop).Cancel()
			}
		}
	})

	// One-tick Proc.Sleep: two procs wake on alternate ticks, so every
	// wakeup hands the event loop to the other goroutine.
	const nSleeps = 100_000
	out["sim.handoff"] = micro(nSleeps, func() func() {
		e := sim.NewEngine()
		body := func(p *sim.Proc) {
			for i := 0; i < nSleeps/2; i++ {
				p.Sleep(2)
			}
		}
		e.Spawn("ping", body)
		e.SpawnAt(1, "pong", body)
		return func() {
			e.Run()
			e.Shutdown()
		}
	})

	// L2 lookups sweeping a working set of half the modelled L2 (hits
	// after the first pass) and of four times it (LRU misses every time).
	const nAccess = 1_000_000
	for _, ws := range []struct {
		name  string
		bytes int
	}{{"gpusim.l2_access_fit", p.GPUL2Bytes / 2}, {"gpusim.l2_access_spill", 4 * p.GPUL2Bytes}} {
		ws := ws
		out[ws.name] = micro(nAccess, func() func() {
			l2 := gpusim.NewL2(p.GPUL2Bytes, p.GPUL2Assoc, p.GPUL2Sector)
			sector, span := uint64(p.GPUL2Sector), uint64(ws.bytes)
			for a := uint64(0); a < span; a += sector {
				l2.Access(a, false)
			}
			return func() {
				a := uint64(0)
				for i := 0; i < nAccess; i++ {
					l2.Access(a, i%4 == 0)
					if a += sector; a >= span {
						a = 0
					}
				}
			}
		})
	}

	// wire.Link.Send of 64 B packets, delivery included.
	const nPkts = 100_000
	out["wire.send"] = micro(nPkts, func() func() {
		e := sim.NewEngine()
		l := wire.NewLink[int](e, p.ExtWireBW, p.ExtWireLat)
		return func() {
			for i := 0; i < nPkts; i++ {
				l.Send(i, 64)
			}
			e.Run()
		}
	})

	// topo.Port.Send over a one-hop and over the longest path of a
	// 256-node 3D torus, delivery included.
	const nHops = 50_000
	for _, far := range []bool{false, true} {
		name := "topo.send_1hop"
		if far {
			name = "topo.send_long"
		}
		far := far
		out[name] = micro(nHops, func() func() {
			e := sim.NewEngine()
			nt := topo.NewNet[int](e, topo.Spec{Kind: topo.Torus3D}, 256,
				topo.LinkConfig{BytesPerSecond: p.ExtWireBW, Latency: p.ExtWireLat},
				"micro.net", func(int) int { return 0 })
			dst, best := -1, 0
			for d := 1; d < 256; d++ {
				h := nt.Hops(0, d)
				if dst < 0 || (far && h > best) || (!far && h < best) {
					dst, best = d, h
				}
			}
			nt.Bind(0, 0, dst)
			port := nt.Port(0)
			return func() {
				for i := 0; i < nHops; i++ {
					port.Send(i, 64)
				}
				e.Run()
			}
		})
	}

	// Lazy 1024-node cluster construction: only the switch graph is built.
	const nClusters = 20
	cp := collParams()
	out["cluster.lazy1024"] = micro(nClusters, func() func() {
		return func() {
			for i := 0; i < nClusters; i++ {
				cluster.NewClusterOn(cluster.FabricExtoll, topo.Spec{Kind: topo.FatTree}, 1024, cp).Shutdown()
			}
		}
	})
	return out
}
