package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"putget/internal/bench"
	"putget/internal/cluster"
	"putget/internal/faults"
	"putget/internal/gpusim"
	"putget/internal/kv"
	"putget/internal/pcie"
	"putget/internal/shmem"
	"putget/internal/sim"
	"putget/internal/topo"
	"putget/internal/transport"
)

var fabrics = []transport.Kind{transport.KindExtoll, transport.KindIB}

// workloads maps each workload name to its cell list for a seed.
var workloads = map[string]func(seed uint64) []cell{
	"kvserve":        kvserveCells,
	"collectives256": collectiveCells,
	"paper":          paperCells,
}

// pairSetup builds the two-node testbed an entry point would build for
// itself, timing the constructor as cluster build time.
func pairSetup(k transport.Kind, p cluster.Params, t *tally) *cluster.Testbed {
	var tb *cluster.Testbed
	t.timed("cluster.build_s", func() {
		if k == transport.KindExtoll {
			tb = cluster.NewExtollPair(p)
		} else {
			tb = cluster.NewIBPair(p)
		}
	})
	return tb
}

// shrink caps the simulated memories the way the entry points do before
// building their testbed (the backing pages are sparse, so only the
// sizes matter).
func shrink(p cluster.Params, dev, host uint64) cluster.Params {
	if p.GPUDevMemSize > dev {
		p.GPUDevMemSize = dev
	}
	if p.HostRAMSize > host {
		p.HostRAMSize = host
	}
	return p
}

// addPCIe sums the transaction counters of a node's PCIe endpoints.
func addPCIe(t *tally, nd *cluster.Node) {
	eps := []*pcie.Endpoint{nd.GPU.Endpoint(), nd.CPU.Endpoint()}
	if nd.Extoll != nil {
		eps = append(eps, nd.Extoll.Endpoint())
		t.add("extoll.retransmits", float64(nd.Extoll.Stats().Retransmits))
	}
	if nd.IB != nil {
		eps = append(eps, nd.IB.Endpoint())
		t.add("ibsim.retransmits", float64(nd.IB.Stats().Retransmits))
	}
	for _, ep := range eps {
		st := ep.Stats()
		t.add("pcie.posted_writes", float64(st.PostedWrites))
		t.add("pcie.reads", float64(st.Reads))
		t.add("pcie.bulk_reads", float64(st.BulkReads))
	}
}

// addGPU sums a GPU's counters.
func addGPU(t *tally, c gpusim.Counters) {
	t.add("gpusim.instr", float64(c.InstrExecuted))
	t.add("gpusim.l2_requests", float64(c.L2ReadRequests+c.L2WriteRequests))
	t.add("gpusim.l2_read_requests", float64(c.L2ReadRequests))
	t.add("gpusim.l2_read_hits", float64(c.L2ReadHits))
	t.add("gpusim.sysmem_reads", float64(c.SysmemReads32B))
}

// ---- kvserve ----

// kvStreams is the number of independent client populations per fabric
// and plan. A population's simulated length, and with it the host time
// of its cell, follows the sum of its seeded arrival gaps: with one
// population per seed, the cost of a repetition moved by about 10% from
// seed to seed. Each population gets its own seed derived from the
// workload seed, so a repetition averages over eight of them.
const kvStreams = 2

// kvPerClient raises kv.DefaultConfig's 120 requests per client to 150:
// 600 requests per cell, 4800 per repetition, so 48 successful requests
// of the pooled sample lie above its P99.
const kvPerClient = 150

// kvPlans picks the lossy (wire drop and corrupt) and blackout (reroute,
// hinted handoff) plans from the serving sweep's acceptance grid.
func kvPlans() []kv.Plan {
	var out []kv.Plan
	for _, pl := range kv.DefaultPlans() {
		if pl.Name == "lossy" || pl.Name == "blackout" {
			out = append(out, pl)
		}
	}
	return out
}

// kvParams mirrors kv.Sweep's per-cell fault set-up: reliability on in
// every cell, one derived injector seed per cell.
func kvParams(seed uint64, i int, pl kv.Plan) cluster.Params {
	p := cluster.Default()
	p.Parallel = 1
	p.FaultInject = true
	p.FaultSeed = faults.DeriveSeed(seed, uint64(i+1))
	p.FaultDropRate = pl.DropRate
	p.FaultCorruptRate = pl.CorruptRate
	p.FaultDelayMax = pl.DelayMax
	return p
}

func kvserveCells(seed uint64) []cell {
	var cells []cell
	for _, k := range fabrics {
		for _, pl := range kvPlans() {
			for st := 0; st < kvStreams; st++ {
				k, pl, i := k, pl, len(cells)
				p := kvParams(seed, i, pl)
				cells = append(cells, cell{
					name: fmt.Sprintf("kvserve/%s/%s/%d", k, pl.Name, st),
					setup: func(t *tally, obs sim.Observer) *phases {
						tb := pairSetup(k, shrink(p, 64<<20, 64<<20), t)
						cfg := kv.DefaultConfig(faults.DeriveSeed(seed, kvStreamSalt+uint64(i)))
						cfg.PerClient = kvPerClient
						cfg.Outages = pl.Outages
						cfg.Observer = obs
						var m kv.Metrics
						return &phases{
							run: func() { m = kv.Run(k, p, cfg) },
							verify: func(t *tally) (uint64, error) {
								if m.Ok+m.QuorumFails != m.Requests {
									return 0, fmt.Errorf("Ok %d + QuorumFails %d != Requests %d", m.Ok, m.QuorumFails, m.Requests)
								}
								if len(m.Latencies) != m.Ok {
									return 0, fmt.Errorf("%d latencies for %d successful requests", len(m.Latencies), m.Ok)
								}
								t.lat = append(t.lat, m.Latencies...)
								t.add("sim.events", float64(m.Events))
								t.add("kv.requests", float64(m.Requests))
								t.add("kv.ok", float64(m.Ok))
								t.add("kv.retries", float64(m.Retries))
								t.add("kv.timeouts", float64(m.Timeouts))
								return digest(m), nil
							},
							close: tb.Shutdown,
						}
					},
				})
			}
		}
	}
	return cells
}

// kvStreamSalt derives the client populations' seeds, apart from the
// fault injectors' (salts 1, 2, ...).
const kvStreamSalt = 0x5eed0000

// retxProbeCells replay the lossy plan's wire fault rates on a
// host-controlled 64 B put stream per fabric. kv.Run keeps its testbed
// to itself, so link-level retransmissions are read from this probe's
// reliability counters instead.
func retxProbeCells(seed uint64) []cell {
	var lossy kv.Plan
	for _, pl := range kvPlans() {
		if pl.Name == "lossy" {
			lossy = pl
		}
	}
	var cells []cell
	for _, k := range fabrics {
		k := k
		p := kvParams(seed, 100+len(cells), lossy)
		cells = append(cells, cell{
			name: fmt.Sprintf("retxprobe/%s", k),
			setup: func(t *tally, _ sim.Observer) *phases {
				tb := pairSetup(k, shrink(p, 2*64+(64<<20), 96<<20), t)
				var r bench.BandwidthResult
				return &phases{
					run: func() { r = bench.Stream(p, k, transport.HostControlled, 64, 2000) },
					verify: func(t *tally) (uint64, error) {
						if r.Rel == nil {
							return 0, fmt.Errorf("no reliability counters from a fault-injected stream")
						}
						name := "extoll.retransmits"
						if k == transport.KindIB {
							name = "ibsim.retransmits"
						}
						t.add(name, float64(r.Rel.Retransmits))
						rel := *r.Rel
						r.Rel = nil // digest the counters, not the pointer
						return digest(r, rel), nil
					},
					close: tb.Shutdown,
				}
			},
		})
	}
	return cells
}

// ---- collectives256 ----

const (
	collRanks = 256
	collWords = 256 // one word per rank per ring chunk
)

// collectiveCells cover both algorithms, both topologies and both
// fabrics with two cells: the expensive ring on the torus (the most topo
// hops) and recursive doubling on the fat tree.
func collectiveCells(seed uint64) []cell {
	type spec struct {
		alg  shmem.AllReduceAlg
		topo topo.Kind
		k    transport.Kind
	}
	specs := []spec{
		{shmem.Ring, topo.Torus3D, transport.KindExtoll},
		{shmem.RecursiveDoubling, topo.FatTree, transport.KindIB},
	}
	var cells []cell
	for _, s := range specs {
		s := s
		cells = append(cells, cell{
			name: fmt.Sprintf("allreduce/%s/%s/%s/n=%d", s.alg, s.topo, s.k, collRanks),
			setup: func(t *tally, obs sim.Observer) *phases {
				return allReduceSetup(seed, s.alg, topo.Spec{Kind: s.topo}, s.k, t, obs)
			},
		})
	}
	return cells
}

// collParams shrinks per-node footprints for a 256-node world and
// provisions EXTOLL ports for every connection a rank opens.
func collParams() cluster.Params {
	p := cluster.Default()
	p.Parallel = 1
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	p.ExtPorts = 72
	p.ExtNotifEntries = 128
	return p
}

// netStats is what the benchmark reads from a cluster's switch graph.
type netStats interface {
	Hops(src, dst int) int
	MaxDepth() int
	RouteMemoStats() (entries int, hits uint64)
}

// commPairs lists the rank pairs an allreduce plan talks over.
func commPairs(alg shmem.AllReduceAlg, n int) [][2]int {
	var out [][2]int
	if alg == shmem.Ring {
		for r := 0; r < n; r++ {
			out = append(out, [2]int{r, (r + 1) % n})
		}
		return out
	}
	rounds := bits.Len(uint(n)) - 1
	for k := 0; k < rounds; k++ {
		for r := 0; r < n; r++ {
			out = append(out, [2]int{r, r ^ (1 << k)})
		}
	}
	return out
}

func allReduceSetup(seed uint64, alg shmem.AllReduceAlg, spec topo.Spec, k transport.Kind, t *tally, obs sim.Observer) *phases {
	var w *shmem.World
	t.timed("cluster.build_s", func() {
		w = shmem.NewWorldN(k, spec, collRanks, collParams(), 1<<20)
	})
	vec := w.Malloc(8 * collWords)
	var plan *shmem.AllReduce
	t.timed("shmem.plan_s", func() { plan = w.NewAllReduce(alg, vec, collWords) })

	// Seed vectors: rank r's elements come from its own derived stream,
	// kept below 2^32 so the sums over 256 ranks cannot wrap.
	want := make([]uint64, collWords)
	buf := make([]byte, 8*collWords)
	for r := 0; r < collRanks; r++ {
		rng := faults.NewSplitmix64(faults.DeriveSeed(seed, 0xA000+uint64(r)))
		for i := range want {
			v := rng.Next() >> 32
			want[i] += v
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if err := w.PE(r).HostWrite(vec, buf); err != nil {
			panic(err)
		}
	}
	if obs != nil {
		w.CL.E.SetObserver(obs)
	}
	var t0, t1 sim.Time
	return &phases{
		run: func() {
			t0 = w.CL.E.Now()
			w.Run(func(pe *shmem.PE, warp *gpusim.Warp) { plan.Run(pe, warp) })
			t1 = w.CL.E.Now()
		},
		verify: func(t *tally) (uint64, error) {
			for r := 0; r < collRanks; r++ {
				if err := w.PE(r).HostRead(vec, buf); err != nil {
					return 0, err
				}
				for i, v := range want {
					if got := binary.LittleEndian.Uint64(buf[8*i:]); got != v {
						return 0, fmt.Errorf("rank %d element %d = %d, want %d", r, i, got, v)
					}
				}
			}
			elapsed := t1.Sub(t0)
			t.sample("vt_allreduce_us", elapsed.Microseconds())
			t.add("sim.events", float64(w.CL.E.Executed()))
			t.add("cluster.built_nodes", float64(w.CL.Built()))
			t.add("shmem.conns", float64(w.Connections()))
			cs := make([]gpusim.Counters, collRanks)
			for r := range cs {
				nd := w.CL.Node(r)
				cs[r] = nd.GPU.Counters()
				addGPU(t, cs[r])
				addPCIe(t, nd)
			}
			var net netStats = w.CL.ExtNet
			if k == transport.KindIB {
				net = w.CL.IBNet
			}
			for _, pr := range commPairs(alg, collRanks) {
				t.add("topo.hops", float64(net.Hops(pr[0], pr[1])))
				t.add("topo.pairs", 1)
			}
			_, hits := net.RouteMemoStats()
			t.add("topo.route_memo_hits", float64(hits))
			t.max("topo.max_depth", float64(net.MaxDepth()))
			return digest(elapsed, w.CL.E.Executed(), want, cs, net.MaxDepth(), hits), nil
		},
		close: w.Shutdown,
	}
}

// ---- paper ----

var (
	paperSizes  = []int{64, 4 << 10, 64 << 10}
	rateMethods = []bench.RateMethod{bench.RateBlocks, bench.RateKernels, bench.RateAssisted, bench.RateHostControlled}
)

const (
	streamSize = 4 << 10
	streamMsgs = 192 // the bandwidth figures' message count at 4 KiB
	ratePairs  = 16
	putGetSize = 64 << 10 // bytes per put or get
	putGetOps  = 16       // operations per cell: 1 MiB moved
)

// paperIters follows the latency figures: fewer iterations for large
// payloads.
func paperIters(size int) (iters, warmup int) {
	if size >= 64<<10 {
		return 5, 1
	}
	return 10, 2
}

// benchPair fits params the way the bench harness does for a buffer
// size, so the timed stand-alone build matches the one inside the cell.
func benchPair(p cluster.Params, buf uint64) cluster.Params {
	return shrink(p, 2*buf+(64<<20), 96<<20)
}

func paperCells(seed uint64) []cell {
	p := cluster.Default()
	p.Parallel = 1
	var cells []cell
	for _, k := range fabrics {
		k := k
		for _, m := range transport.Modes(k) {
			m := m
			for _, size := range paperSizes {
				size := size
				cells = append(cells, cell{
					name: fmt.Sprintf("pingpong/%s/%s/%d", k, m, size),
					setup: func(t *tally, _ sim.Observer) *phases {
						tb := pairSetup(k, benchPair(p, uint64(size)), t)
						var r bench.LatencyResult
						iters, warm := paperIters(size)
						return &phases{
							run: func() { r = bench.PingPong(p, k, m, size, iters, warm) },
							verify: func(t *tally) (uint64, error) {
								t.sample("vt_half_rtt_us", r.HalfRTT.Microseconds())
								t.add("sim.events", float64(r.Events))
								addGPU(t, r.Counters)
								return digest(r), nil
							},
							close: tb.Shutdown,
						}
					},
				})
			}
			cells = append(cells, cell{
				name: fmt.Sprintf("stream/%s/%s/%d", k, m, streamSize),
				setup: func(t *tally, _ sim.Observer) *phases {
					tb := pairSetup(k, benchPair(p, streamSize), t)
					var r bench.BandwidthResult
					return &phases{
						run: func() { r = bench.Stream(p, k, m, streamSize, streamMsgs) },
						verify: func(t *tally) (uint64, error) {
							t.sample("vt_bandwidth_mbs", r.BytesPerSec/1e6)
							t.add("sim.events", float64(r.Events))
							return digest(r), nil
						},
						close: tb.Shutdown,
					}
				},
			})
		}
		// Message counts per pair follow the message-rate figures.
		perPair := 100
		if k == transport.KindIB {
			perPair = 80
		}
		for _, method := range rateMethods {
			method := method
			cells = append(cells, cell{
				name: fmt.Sprintf("rate/%s/%s/%d", k, method, ratePairs),
				setup: func(t *tally, _ sim.Observer) *phases {
					tb := pairSetup(k, benchPair(p, 256*ratePairs), t)
					var r bench.RateResult
					return &phases{
						run: func() { r = bench.MessageRate(p, k, method, ratePairs, perPair) },
						verify: func(t *tally) (uint64, error) {
							t.sample("vt_msg_rate_mps", r.MsgsPerSec/1e6)
							t.add("sim.events", float64(r.Events))
							return digest(r), nil
						},
						close: tb.Shutdown,
					}
				},
			})
		}
		for _, get := range []bool{false, true} {
			get := get
			op := "put"
			if get {
				op = "get"
			}
			cells = append(cells, cell{
				name: fmt.Sprintf("%s/%s/%dx%d", op, k, putGetOps, putGetSize),
				setup: func(t *tally, obs sim.Observer) *phases {
					return putGetSetup(seed, k, get, t, obs)
				},
			})
		}
	}
	return cells
}

// putGetSetup builds a two-PE world whose rank 1 ends up holding rank
// 0's seeded payload: rank 0 puts it (get false) or rank 1 gets it (get
// true), in putGetOps device-initiated operations.
func putGetSetup(seed uint64, k transport.Kind, get bool, t *tally, obs sim.Observer) *phases {
	const total = putGetOps * putGetSize
	p := benchPair(cluster.Default(), 2*total)
	var w *shmem.World
	t.timed("cluster.build_s", func() { w = shmem.NewWorldOn(k, p, 4*total) })
	src := w.Malloc(total)
	dst := w.Malloc(total)
	payload := make([]byte, total)
	rng := faults.NewSplitmix64(faults.DeriveSeed(seed, 0xB000+uint64(k)))
	for i := 0; i < total; i += 8 {
		binary.LittleEndian.PutUint64(payload[i:], rng.Next())
	}
	if err := w.PE(0).HostWrite(src, payload); err != nil {
		panic(err)
	}
	if obs != nil {
		w.TB.E.SetObserver(obs)
	}
	var t0, t1 sim.Time
	name := "vt_put_us"
	if get {
		name = "vt_get_us"
	}
	return &phases{
		run: func() {
			t0 = w.TB.E.Now()
			w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
				for i := uint64(0); i < putGetOps; i++ {
					off := i * putGetSize
					switch {
					case !get && pe.Rank == 0:
						pe.Put(warp, dst+off, src+off, putGetSize)
					case get && pe.Rank == 1:
						pe.Get(warp, dst+off, src+off, putGetSize)
					}
				}
				pe.Quiet(warp)
			})
			t1 = w.TB.E.Now()
		},
		verify: func(t *tally) (uint64, error) {
			got := make([]byte, total)
			if err := w.PE(1).HostRead(dst, got); err != nil {
				return 0, err
			}
			if !bytes.Equal(got, payload) {
				return 0, fmt.Errorf("%s payload does not read back on rank 1", name)
			}
			elapsed := t1.Sub(t0)
			t.sample(name, elapsed.Microseconds())
			t.add("sim.events", float64(w.TB.E.Executed()))
			var cs []gpusim.Counters
			for _, nd := range []*cluster.Node{w.TB.A, w.TB.B} {
				cs = append(cs, nd.GPU.Counters())
				addGPU(t, nd.GPU.Counters())
				addPCIe(t, nd)
			}
			return digest(elapsed, w.TB.E.Executed(), cs), nil
		},
		close: w.Shutdown,
	}
}
