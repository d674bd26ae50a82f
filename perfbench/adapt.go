package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"chaos/internal/core"
	"chaos/internal/dist"
	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// mesh-adapt: one op is one adaptation epoch on a machine that lives
// for the whole run. A single Repartitioner is held across epochs.
// Each epoch re-points Rewire of the base mesh's edges to a vertex
// within two hops of the old endpoint (relative to the base mesh, so
// the mesh does not drift and every epoch costs the same), then runs
// Map (warm), REDISTRIBUTE, iteration partitioning and Iters executor
// sweeps. The edge arrays change every epoch, so the registry must
// invalidate the saved schedule and the first sweep re-runs the
// inspector. The cold first Map is set-up.

type adaptSize struct {
	NTarget int
	Procs   int
	Iters   int
	Rewire  float64
}

// adaptSizes returns the epoch size, the number of independent chains
// (each its own base mesh, machine and Repartitioner) and the timed
// epochs per chain. Several chains average the run's figures over
// several base meshes; each chain's set-up is one set-up repetition.
func adaptSizes(cfg config) (sz adaptSize, chains, epochs int) {
	if cfg.Small {
		return adaptSize{NTarget: smallMesh, Procs: 4, Iters: 4, Rewire: 0.02}, 2, 2
	}
	const chainsN = 6
	return adaptSize{NTarget: 21000, Procs: 8, Iters: 20, Rewire: 0.02}, chainsN, (opCount(cfg, 3) + chainsN - 1) / chainsN
}

// hostBarrier lines up the ranks of one machine on the host, without
// touching their virtual clocks (a machine barrier would charge them).
// The last rank to arrive runs the callback before releasing the rest.
// Once broken (a rank is unwinding), waits return at once.
type hostBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	broken  bool
}

func newHostBarrier(n int) *hostBarrier {
	b := &hostBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *hostBarrier) wait(onLast func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		onLast()
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
}

func (b *hostBarrier) breakAll() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// adaptInputs are the generated inputs of one mesh-adapt run.
type adaptInputs struct {
	m      *mesh.Mesh
	epochs [][]int // second-endpoint array of each epoch (warm-up first)
}

func genAdapt(cfg config, sz adaptSize, chain, nEpochs int) *adaptInputs {
	m := mesh.Generate(sz.NTarget, meshSeed(cfg.Seed, chain))
	xadj, adj := csr(m.NNode, m.E1, m.E2)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xada97+uint64(chain)))
	in := &adaptInputs{m: m, epochs: make([][]int, nEpochs)}
	for k := range in.epochs {
		in.epochs[k] = applyRewires(m.E2, localRewires(rng, m.E1, m.E2, xadj, adj, sz.Rewire))
	}
	return in
}

// adaptTrace is what the epochs hand back to the host.
type adaptTrace struct {
	ys         [][]float64 // gathered y after each epoch
	parts      [][]int     // gathered partition of each epoch
	bounds     []time.Time // epoch boundaries (len epochs+1)
	boundNS    []int64     // the same boundaries on the recorder's clock
	memStart   *memWindow  // runtime counters at the first timed epoch
	mem        memDelta    // runtime activity over the timed epochs
	clocks     [][]float64 // [boundary][rank] virtual clock
	inspVS     [][]float64 // [epoch][rank] inspector virtual time
	reinsp     [][]int     // [epoch][rank] sweeps that re-ran the inspector
	ghost      [][]int     // [epoch][rank] ghost slots of the saved schedules
	commPhases int
	recold     [2]int    // Repartitioner re-colds before and after the timed epochs
	inspMS     []float64 // per epoch: re-inspecting sweep wall over a reusing one, max over ranks
	setupEnd   time.Time
}

// adaptRun runs one chain on one machine: set-up, then every epoch
// (epoch 0 is the warm-up). Timed epoch k is op opBase+k-1.
func adaptRun(in *adaptInputs, sz adaptSize, tr *Recorder, opBase int) (*adaptTrace, error) {
	m := in.m
	n, nedge, P := m.NNode, m.NEdge(), sz.Procs
	nEp := len(in.epochs)
	at := &adaptTrace{
		ys: make([][]float64, nEp), parts: make([][]int, nEp),
		bounds: make([]time.Time, 0, nEp+1), clocks: make([][]float64, nEp+1),
		inspVS: make([][]float64, nEp), reinsp: make([][]int, nEp), ghost: make([][]int, nEp), inspMS: make([]float64, nEp),
	}
	for k := 0; k < nEp; k++ {
		at.ys[k] = make([]float64, n)
		at.parts[k] = make([]int, n)
		at.inspVS[k] = make([]float64, P)
		at.reinsp[k] = make([]int, P)
		at.ghost[k] = make([]int, P)
	}
	for k := range at.clocks {
		at.clocks[k] = make([]float64, P)
	}
	reinspMS := make([][]float64, nEp) // [epoch][rank]
	for k := range reinspMS {
		reinspMS[k] = make([]float64, P)
	}
	bar := newHostBarrier(P)
	_, err := machine.RunStats(context.Background(), machine.IPSC860(P), func(c *machine.Ctx) {
		me := c.Rank()
		defer func() {
			if p := recover(); p != nil {
				bar.breakAll()
				panic(p)
			}
		}()
		s := core.NewSession(c)
		x := s.NewArray("x", n)
		y := s.NewArray("y", n)
		x.FillByGlobal(m.InitialState)
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", nedge)
		e2 := s.NewIntArray("end_pt2", nedge)
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int { return m.E2[g] })
		input := core.GeoColInput{Link1: e1, Link2: e2}
		rp, err := s.NewRepartitioner(multilevel)
		if err != nil {
			panic(err)
		}
		mp, err := rp.Map(n, input, P)
		if err != nil {
			panic(err)
		}
		s.Redistribute(mp, []*core.Array{x, y}, nil)
		loop := newSweep(s, nedge, x, y, e1, e2)
		loop.PartitionIterations(iterpart.AlmostOwnerComputes)
		for k := 0; ; k++ {
			at.clocks[k][me] = c.Clock()
			bar.wait(func() {
				switch k {
				case 0:
					at.setupEnd = time.Now()
				case 1:
					at.memStart = startMem()
				case nEp:
					at.mem = at.memStart.stop()
				}
				at.bounds = append(at.bounds, time.Now())
				at.boundNS = append(at.boundNS, tr.Now())
			})
			if k == nEp {
				break
			}
			if k == 1 && me == 0 {
				at.recold[0] = rp.Stats().Recold
			}
			op, etr := opBase+k-1, tr // epoch 0 is the warm-up: not traced
			if k == 0 {
				etr = nil
			}
			span := func(name string, f func()) { etr.Time(name, op, me, -1, c.Clock, f) }
			ek := in.epochs[k]
			e2.FillByGlobal(func(g int) int { return ek[g] })
			span("partition.warm", func() {
				if mp, err = rp.Map(n, input, P); err != nil {
					panic(err)
				}
			})
			span("remap.redistribute", func() { s.Redistribute(mp, []*core.Array{x, y}, nil) })
			span("iterpart.assign", func() { loop.PartitionIterations(iterpart.AlmostOwnerComputes) })
			var reuseMS []float64
			for it := 0; it < sz.Iters; it++ {
				before := s.Timer(core.TimerInspector)
				sp := Span{Op: op, Rank: me, Parent: -1, Start: etr.Now(), VStart: c.Clock()}
				loop.Execute()
				sp.End, sp.VEnd = etr.Now(), c.Clock()
				sp.Name = "core.execute"
				if d := s.Timer(core.TimerInspector) - before; d != 0 {
					at.reinsp[k][me]++
					at.inspVS[k][me] += d
					sp.Name = "registry.reinspect"
					reinspMS[k][me] += sp.WallMS()
				} else {
					reuseMS = append(reuseMS, sp.WallMS())
				}
				etr.Add(sp)
			}
			if len(reuseMS) > 0 {
				reinspMS[k][me] -= float64(at.reinsp[k][me]) * median(reuseMS)
			}
			for _, gw := range loop.GhostCounts() {
				at.ghost[k][me] += gw
			}
			if me == 0 {
				at.commPhases = loop.CommPhases()
			}
			for i, g := range y.MyGlobals() {
				at.ys[k][g] = y.Data[i]
			}
			copy(at.parts[k][dist.NewBlock(n, P).Lo(me):], mp.LocalPart())
			if k == nEp-1 && me == 0 {
				at.recold[1] = rp.Stats().Recold
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for k := range reinspMS {
		for _, v := range reinspMS[k] {
			at.inspMS[k] = max(at.inspMS[k], v)
		}
	}
	return at, nil
}

// runAdapt is the mesh-adapt workload.
func runAdapt(cfg config, tr *Recorder) (*runResult, error) {
	sz, chains, epochs := adaptSizes(cfg)
	res := &runResult{Machine: true, Layer: map[string]float64{}}
	acc := map[string]float64{}
	recold := 0.0
	for ch := 0; ch < chains; ch++ {
		runtime.GC()
		t0 := time.Now()
		in := genAdapt(cfg, sz, ch, epochs+1)
		at, err := adaptRun(in, sz, tr, ch*epochs)
		if err != nil {
			return nil, fmt.Errorf("adapt chain %d: %w", ch, err)
		}
		res.SetupS = append(res.SetupS, at.setupEnd.Sub(t0).Seconds())
		checkAdapt(cfg, sz, in, at, ch*epochs, res, acc, tr)
		recold += float64(at.recold[1] - at.recold[0])
	}
	nops := float64(len(res.Ops))
	for k, v := range acc {
		res.Layer[k] = v / nops
	}
	res.Layer["partition.recold_count"] = recold
	return res, nil
}

// checkAdapt turns one chain's epochs into timed ops and checks each
// one: the gathered y against the serial reference accumulated over
// every epoch so far, the partition contract, and that exactly one
// sweep per epoch re-ran the inspector on every rank (the registry
// noticed the changed edge arrays, and reused the schedule
// afterwards). Per-layer sums over the chain's epochs go to acc.
func checkAdapt(cfg config, sz adaptSize, in *adaptInputs, at *adaptTrace, opBase int, res *runResult, acc map[string]float64, tr *Recorder) {
	m := in.m
	x := make([]float64, m.NNode)
	for v := range x {
		x[v] = m.InitialState(v)
	}
	ref := make([]float64, m.NNode)
	for k := range in.epochs {
		one := sweep(m.NNode, m.E1, in.epochs[k], x)
		for v := range ref {
			ref[v] += float64(sz.Iters) * one[v]
		}
		if k == 0 {
			continue // warm-up epoch: checked through the next epoch's reference
		}
		op := opBase + k - 1
		o := opResult{WallS: at.bounds[k+1].Sub(at.bounds[k]).Seconds()}
		o.VS = maxOf(at.clocks[k+1]) - maxOf(at.clocks[k])
		part, y := at.parts[k], at.ys[k]
		if op == cfg.Corrupt {
			part[0] = -1
		}
		o.Cut = float64(edgeCut(m.E1, in.epochs[k], part))
		o.Ratio, o.Digest = maxPartRatio(part, sz.Procs), digest(part)
		switch {
		case checkPartition(part, m.NNode, sz.Procs, multilevelTol) != nil:
			o.Fail = "partition-contract"
		case checkClose(y, ref) != nil:
			o.Fail = "executor-vs-serial"
		case !allEqual(at.reinsp[k], 1):
			o.Fail = "registry-invalidate"
		}
		res.Ops = append(res.Ops, o)
		for v, p := range part {
			if p != at.parts[k-1][v] {
				acc["remap.moved_vertices"]++
			}
		}
		acc["registry.reuse_ratio"] += float64(sz.Iters-at.reinsp[k][0]) / float64(sz.Iters)
		for _, gw := range at.ghost[k] {
			acc["schedule.ghost_words"] += float64(gw)
		}
		acc["schedule.inspect_vs"] += maxOf(at.inspVS[k])
		acc["schedule.inspect_ms"] += at.inspMS[k]
		acc["schedule.comm_phases"] += float64(at.commPhases)
		if tr != nil {
			root := tr.Add(Span{Name: "op", Op: op, Rank: -1, Parent: -1, Start: at.boundNS[k], End: at.boundNS[k+1]})
			tr.SetParent(op, root)
		}
	}
	res.WallS += at.bounds[len(at.bounds)-1].Sub(at.bounds[1]).Seconds()
	res.Mem.AllocBytes += at.mem.AllocBytes
	res.Mem.GCs += at.mem.GCs
	res.Mem.PauseNS += at.mem.PauseNS
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

func allEqual(xs []int, want int) bool {
	for _, x := range xs {
		if x != want {
			return false
		}
	}
	return true
}
