package geocol

import (
	"fmt"
	"testing"

	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// BenchmarkHotGhostExchange measures the steady state of the
// arena-backed ghost-exchange hot paths on a 4-rank mesh: one dense
// push plus one sparse incremental update per op, every destination
// buffer reused. What remains per op is the irreducible AlltoAll
// transport floor (the machine copies payloads per delivery, by
// design); the bench-gate baseline pins it so routing allocations can
// never creep back in.
func BenchmarkHotGhostExchange(b *testing.B) {
	m := mesh.Generate(21000, 11)
	const p = 4
	b.ReportAllocs()
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := Build(c, m.NNode, WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		ge := NewGhostExchange(c, g)
		localN := g.LocalN(c.Rank())
		vals := make([]int, localN)
		for l := range vals {
			vals[l] = l
		}
		changed := make([]bool, localN)
		for l := 0; l < localN; l += 64 {
			changed[l] = true
		}
		var ghost, touched []int
		ghost = ge.PushIntsInto(c, vals, ghost) // warm the buffers
		if tc := ge.UpdateIntsTouchedInto(c, vals, changed, ghost, touched); tc != nil {
			touched = tc
		}
		c.SumInt(0) // barrier: all ranks warmed before the timer resets
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			ghost = ge.PushIntsInto(c, vals, ghost)
			if tc := ge.UpdateIntsTouchedInto(c, vals, changed, ghost, touched); tc != nil {
				touched = tc
			}
		}
		c.SumInt(0)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// hotLevelBench runs op once per b.N iteration on every rank of a P=8
// machine, over the 21952-node mesh at ladder level 0 and at level 1
// (one coarsen step). The level's graph, exchange pattern and
// clustering are built, and op is run once to warm its scratch, before
// the timer starts.
func hotLevelBench(b *testing.B, op func(c *machine.Ctx, g *Graph, ge *GhostExchange, cmap []int, coarseN int)) {
	m := mesh.Generate(21000, 11)
	const p = 8
	for _, level := range []int{0, 1} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			b.ReportAllocs()
			err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
				g := meshGraph(c, m)
				for i := 0; i < level; i++ {
					g = coarsen(c, g)
				}
				ge := NewGhostExchange(c, g)
				cmap, coarseN := localMatchCmap(c, g)
				op(c, g, ge, cmap, coarseN) // warm
				c.SumInt(0)                 // barrier: all ranks warmed before the timer resets
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				// A second barrier holds every rank until the reset is
				// done: a GhostBuild op has no collective of its own,
				// so a rank could otherwise run ahead of the reset and
				// drop its first ops' allocations from the count.
				c.SumInt(0)
				for i := 0; i < b.N; i++ {
					op(c, g, ge, cmap, coarseN)
				}
				c.SumInt(0)
				if c.Rank() == 0 {
					b.StopTimer()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkHotBuildCoarse is one distributed contraction per op with a
// warm per-rank CoarseAssembler. What it allocates per op is the
// AlltoAll transport floor plus the returned coarse Graph.
func BenchmarkHotBuildCoarse(b *testing.B) {
	var asm [8]CoarseAssembler
	hotLevelBench(b, func(c *machine.Ctx, g *Graph, ge *GhostExchange, cmap []int, coarseN int) {
		asm[c.Rank()].BuildCoarse(c, g, ge, cmap, coarseN)
	})
}

// BenchmarkHotGhostBuild is one exchange-pattern construction per op.
// The pattern is the product, so its index arrays and send buffers are
// what it allocates.
func BenchmarkHotGhostBuild(b *testing.B) {
	hotLevelBench(b, func(c *machine.Ctx, g *Graph, _ *GhostExchange, _ []int, _ int) {
		NewGhostExchange(c, g)
	})
}
