package main

import (
	"context"
	"fmt"
	"time"

	"chaos/internal/core"
	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/partition"
)

// mesh-pipeline: one op is one Figure 2 cell on a fresh machine —
// CONSTRUCT (LINK), SET BY PARTITIONING (MULTILEVEL defaults),
// REDISTRIBUTE x and y, iteration partitioning (almost-owner-computes),
// one explicit inspector run, then Iters executor sweeps that reuse
// the saved schedule.

// pipelineSize fixes the work of one op.
type pipelineSize struct {
	NTarget int // mesh.Generate vertex target
	Procs   int
	Iters   int // executor sweeps per op
}

// smallMesh is the vertex target of the smoke test's meshes: above
// MULTILEVEL's 2048-vertex distributed threshold, so the tiny runs
// take the same partitioning path (and retain a ladder for warm
// repartitions) as the full-size ones.
const smallMesh = 2200

func pipelineSizes(cfg config) (pipelineSize, int) {
	if cfg.Small {
		return pipelineSize{NTarget: smallMesh, Procs: 4, Iters: 5}, 3
	}
	return pipelineSize{NTarget: 21000, Procs: 8, Iters: 100}, opCount(cfg, 1.75)
}

// opCount is the fixed op count of a workload at cfg.Seconds: perSec
// ops per nominal second, and never fewer than the percentile rule
// needs for a median.
func opCount(cfg config, perSec float64) int {
	return max(2*minBeyond, int(float64(cfg.Seconds)*perSec+0.5))
}

// multilevel is the partitioner every mesh workload uses: MULTILEVEL
// with its defaults, whose declared balance tolerance is 7%.
var multilevel = partition.Spec{Method: partition.MethodMultilevel}

const multilevelTol = 0.07

// cellOut is what one Figure 2 cell hands back to the host: the
// gathered y, the gathered partition, and per-rank schedule figures.
type cellOut struct {
	y          []float64
	part       []int
	ghostWords []int // per rank: ghost slots of the saved schedules
	commPhases int
	reinspects []int // per rank: Execute calls that re-ran the inspector
}

func newCellOut(n, procs int) *cellOut {
	return &cellOut{
		y:          make([]float64, n),
		part:       make([]int, n),
		ghostWords: make([]int, procs),
		reinspects: make([]int, procs),
	}
}

// gatherY copies a rank's section of y into the host-side vector.
// Ranks own disjoint globals, so concurrent ranks write disjoint
// elements.
func (o *cellOut) gatherY(y *core.Array) {
	for i, g := range y.MyGlobals() {
		o.y[g] = y.Data[i]
	}
}

// gatherPart copies a rank's home-aligned slice of the map array.
func (o *cellOut) gatherPart(c *machine.Ctx, n int, m *core.Mapping) {
	copy(o.part[dist.NewBlock(n, c.Procs()).Lo(c.Rank()):], m.LocalPart())
}

// executeAll runs iters executor sweeps, each as one span, counting
// the sweeps that re-ran the inspector (its virtual timer moved).
func executeAll(tr *Recorder, op, parent int, s *core.Session, loop *core.Loop, iters int, out *cellOut) {
	c := s.C
	for it := 0; it < iters; it++ {
		before := s.Timer(core.TimerInspector)
		tr.Time("core.execute", op, c.Rank(), parent, c.Clock, loop.Execute)
		if s.Timer(core.TimerInspector) != before {
			out.reinspects[c.Rank()]++
		}
	}
}

// newSweep declares the paper's edge loop L2 over x, y and the edge
// arrays.
func newSweep(s *core.Session, nedge int, x, y *core.Array, e1, e2 *core.IntArray) *core.Loop {
	return s.NewLoop("edge-sweep", nedge,
		[]core.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
		[]core.Write{{Arr: y, Ind: e1, Op: core.Add}, {Arr: y, Ind: e2, Op: core.Add}},
		mesh.EulerFlops, mesh.EulerFlux)
}

// pipelineCell runs one op on a fresh machine.
func pipelineCell(ctx context.Context, m *mesh.Mesh, sz pipelineSize, tr *Recorder, op int) (*cellOut, machine.Stats, error) {
	n, nedge := m.NNode, m.NEdge()
	out := newCellOut(n, sz.Procs)
	st, err := machine.RunStats(ctx, machine.IPSC860(sz.Procs), func(c *machine.Ctx) {
		me := c.Rank()
		span := func(name string, f func()) { tr.Time(name, op, me, -1, c.Clock, f) }
		s := core.NewSession(c)
		x := s.NewArray("x", n)
		y := s.NewArray("y", n)
		x.FillByGlobal(m.InitialState)
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", nedge)
		e2 := s.NewIntArray("end_pt2", nedge)
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int { return m.E2[g] })

		var g *geocol.Graph
		span("geocol.construct", func() {
			g = s.Construct(n, core.GeoColInput{Link1: e1, Link2: e2})
		})
		var mp *core.Mapping
		var perr error
		span("partition.cold", func() { mp, perr = s.SetPartitioning(g, multilevel, sz.Procs) })
		if perr != nil {
			panic(perr) // same spec on every rank: all ranks fail alike
		}
		span("remap.redistribute", func() { s.Redistribute(mp, []*core.Array{x, y}, nil) })
		loop := newSweep(s, nedge, x, y, e1, e2)
		span("iterpart.assign", func() { loop.PartitionIterations(iterpart.AlmostOwnerComputes) })
		span("schedule.inspect", loop.Inspect)
		for _, gw := range loop.GhostCounts() {
			out.ghostWords[me] += gw
		}
		if me == 0 {
			out.commPhases = loop.CommPhases()
		}
		executeAll(tr, op, -1, s, loop, sz.Iters, out)
		out.gatherY(y)
		out.gatherPart(c, n, mp)
	})
	return out, st, err
}

// runPipeline is the mesh-pipeline workload. Every op partitions its
// own seeded variant of the mesh (same lattice, another numbering and
// jitter), so the run's mean cut and median latency average over many
// inputs rather than hanging on one.
func runPipeline(cfg config, tr *Recorder) (*runResult, error) {
	sz, nops := pipelineSizes(cfg)
	setup, meshes, err := timeSetup(5, func() ([]*mesh.Mesh, error) {
		ms := make([]*mesh.Mesh, nops+1) // the last one is the warm-up's
		for k := range ms {
			ms[k] = mesh.Generate(sz.NTarget, meshSeed(cfg.Seed, k))
		}
		return ms, nil
	})
	if err != nil {
		return nil, err
	}
	res := &runResult{SetupS: setup, Machine: true, Layer: map[string]float64{}}
	ctx := context.Background()
	// One warm-up op, excluded from timing and from the counts.
	if _, _, err := pipelineCell(ctx, meshes[nops], sz, nil, -1); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	var runMS, ghost, moved, reuse float64
	outs := make([]*cellOut, nops)
	stats := make([]machine.Stats, nops)
	errs := make([]error, nops)
	mw := startMem()
	t0 := time.Now()
	for k := 0; k < nops; k++ {
		start := tr.Now()
		o0 := time.Now()
		outs[k], stats[k], errs[k] = pipelineCell(ctx, meshes[k], sz, tr, k)
		res.Ops = append(res.Ops, opResult{WallS: time.Since(o0).Seconds(), VS: stats[k].MaxClock})
		root := tr.Add(Span{Name: "op", Op: k, Rank: -1, Parent: -1, Start: start, End: tr.Now()})
		tr.SetParent(k, root)
	}
	res.WallS = time.Since(t0).Seconds()
	res.Mem = mw.stop()

	// Check every op against the serial reference: x never changes, so
	// after Iters sweeps every y holds Iters times one sweep's
	// contribution.
	for k, out := range outs {
		op, m := &res.Ops[k], meshes[k]
		if errs[k] != nil {
			op.Fail = "machine-run"
			continue
		}
		if k == cfg.Corrupt {
			out.y[0] += 1
		}
		x := make([]float64, m.NNode)
		for v := range x {
			x[v] = m.InitialState(v)
		}
		ref := sweep(m.NNode, m.E1, m.E2, x)
		for v := range ref {
			ref[v] *= float64(sz.Iters)
		}
		op.Cut = float64(edgeCut(m.E1, m.E2, out.part))
		op.Ratio, op.Digest = maxPartRatio(out.part, sz.Procs), digest(out.part)
		switch {
		case checkPartition(out.part, m.NNode, sz.Procs, multilevelTol) != nil:
			op.Fail = "partition-contract"
		case checkClose(out.y, ref) != nil:
			op.Fail = "executor-vs-serial"
		case out.reinspects[0] != 0:
			op.Fail = "schedule-reuse"
		}
		runMS += stats[k].Elapsed.Seconds() * 1e3
		for _, gw := range out.ghostWords {
			ghost += float64(gw)
		}
		block := dist.NewBlock(m.NNode, sz.Procs)
		for v, p := range out.part {
			if p != block.Owner(v) {
				moved++
			}
		}
		reuse += float64(sz.Iters-out.reinspects[0]) / float64(sz.Iters)
		res.Layer["schedule.comm_phases"] = float64(out.commPhases)
	}
	k := float64(nops)
	res.Layer["machine.run_ms"] = runMS / k
	res.Layer["schedule.ghost_words"] = ghost / k
	res.Layer["remap.moved_vertices"] = moved / k
	res.Layer["registry.reuse_ratio"] = reuse / k
	return res, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
