package geocol

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// ghostPattern is the derived index state of a GhostExchange: the
// parts the reference construction below must reproduce exactly.
type ghostPattern struct {
	ids, loc  []int
	send      [][]int
	recvStart []int
}

func patternOf(ge *GhostExchange) ghostPattern {
	return ghostPattern{ids: ge.IDs, loc: ge.Loc, send: ge.send, recvStart: ge.recvStart}
}

// refGhostPattern is the comparison-sort construction of the exchange
// pattern: collect every remote endpoint, sort and dedup it into IDs,
// cut IDs into per-owner runs, and binary-search each remote adjacency
// slot for its ghost slot. NewGhostExchange must agree with it field
// for field.
func refGhostPattern(me, procs int, g *Graph) ghostPattern {
	lo, localN := g.Home.Lo(me), g.LocalN(me)
	p := ghostPattern{send: make([][]int, procs), recvStart: make([]int, procs+1)}
	var remote []int
	for l := 0; l < localN; l++ {
		for _, v := range g.Neighbors(l) {
			r := g.Home.Owner(v)
			if r == me {
				continue
			}
			remote = append(remote, v)
			if s := p.send[r]; len(s) == 0 || s[len(s)-1] != l {
				p.send[r] = append(p.send[r], l)
			}
		}
	}
	sort.Ints(remote)
	for i, v := range remote {
		if i == 0 || v != remote[i-1] {
			p.ids = append(p.ids, v)
		}
	}
	r := 0
	for i, v := range p.ids {
		for owner := g.Home.Owner(v); r < owner; {
			r++
			p.recvStart[r] = i
		}
	}
	for ; r < procs; r++ {
		p.recvStart[r+1] = len(p.ids)
	}
	p.loc = make([]int, len(g.Adj))
	for k, v := range g.Adj {
		if g.Home.Owner(v) == me {
			p.loc[k] = v - lo
		} else {
			p.loc[k] = -(sort.SearchInts(p.ids, v) + 1)
		}
	}
	return p
}

// mismatch describes the first field where got differs from want, or
// returns "" when the patterns are identical.
func (want ghostPattern) mismatch(got ghostPattern) string {
	switch {
	case !slices.Equal(got.ids, want.ids):
		return fmt.Sprintf("IDs %v, reference %v", got.ids, want.ids)
	case !slices.Equal(got.loc, want.loc):
		return fmt.Sprintf("Loc %v, reference %v", got.loc, want.loc)
	case !slices.Equal(got.recvStart, want.recvStart):
		return fmt.Sprintf("recvStart %v, reference %v", got.recvStart, want.recvStart)
	case len(got.send) != len(want.send):
		return fmt.Sprintf("%d send lists, reference %d", len(got.send), len(want.send))
	}
	for r := range want.send {
		if !slices.Equal(got.send[r], want.send[r]) {
			return fmt.Sprintf("send[%d] %v, reference %v", r, got.send[r], want.send[r])
		}
	}
	return ""
}

// meshGraph builds the GeoCoL graph of m with each rank contributing
// one contiguous slice of the edge list. Collective.
func meshGraph(c *machine.Ctx, m *mesh.Mesh) *Graph {
	p := c.Procs()
	eb := m.NEdge() / p
	elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
	if c.Rank() == p-1 {
		ehi = m.NEdge()
	}
	return Build(c, m.NNode, WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
}

// localMatchCmap clusters g the way a coarsening level does, restricted
// to home pairs: each unmatched home vertex joins its first unmatched
// home neighbor, and clusters are numbered consecutively in rank order.
// It returns this rank's cmap and the global coarse vertex count.
// Collective.
func localMatchCmap(c *machine.Ctx, g *Graph) ([]int, int) {
	lo, localN := g.Home.Lo(c.Rank()), g.LocalN(c.Rank())
	mate := make([]int, localN)
	for l := range mate {
		mate[l] = -1
	}
	mine := 0
	for l := 0; l < localN; l++ {
		if mate[l] >= 0 {
			continue
		}
		mate[l] = l
		for _, v := range g.Neighbors(l) {
			if h := v - lo; h >= 0 && h < localN && mate[h] < 0 {
				mate[l], mate[h] = h, l
				break
			}
		}
		mine++
	}
	counts := c.AllGatherInt(mine)
	next, coarseN := 0, 0
	for r, n := range counts {
		if r < c.Rank() {
			next += n
		}
		coarseN += n
	}
	cmap := make([]int, localN)
	for l := range cmap {
		if mate[l] >= l {
			cmap[l] = next
			cmap[mate[l]] = next
			next++
		}
	}
	return cmap, coarseN
}

// coarsen contracts g one level under localMatchCmap. Collective.
func coarsen(c *machine.Ctx, g *Graph) *Graph {
	cmap, coarseN := localMatchCmap(c, g)
	var asm CoarseAssembler
	return asm.BuildCoarse(c, g, NewGhostExchange(c, g), cmap, coarseN)
}

// TestGhostExchangeMatchesReference pins the linear-time pattern
// construction against the sort-and-search reference over layouts that
// stress its bucketing and window passes, on both backends.
func TestGhostExchangeMatchesReference(t *testing.T) {
	m := mesh.Generate(600, 13)
	type layout struct {
		name string
		n, p int
		// edges lists the graph's edges; rank 0 contributes all of them.
		edges  func(n int) (e1, e2 []int)
		levels int // coarse levels checked on top of the fine graph
		mesh   bool
	}
	layouts := []layout{
		{name: "empty ranks", n: 32, p: 4, edges: func(n int) (e1, e2 []int) {
			// Only ranks 0 and 1 hold edges; ranks 2 and 3 own
			// vertices but have empty patterns.
			for v := 0; v < n/2-1; v++ {
				e1, e2 = append(e1, v), append(e2, v+1)
			}
			return e1, e2
		}},
		{name: "N<P", n: 3, p: 8, edges: func(n int) (e1, e2 []int) {
			return []int{0, 1, 2}, []int{1, 2, 0}
		}},
		{name: "isolated vertices", n: 40, p: 4, edges: func(n int) (e1, e2 []int) {
			for v := 0; v+6 < n; v += 3 {
				e1, e2 = append(e1, v), append(e2, v+6)
			}
			return e1, e2
		}},
		{name: "star hub", n: 301, p: 4, levels: 2, edges: func(n int) (e1, e2 []int) {
			for v := 1; v < n; v++ {
				e1, e2 = append(e1, 0), append(e2, v)
			}
			return e1, e2
		}},
		{name: "all-remote rank", n: 32, p: 4, edges: func(n int) (e1, e2 []int) {
			// Rank 1 owns [8,16) and every one of its edges leaves it.
			for v := 8; v < 16; v++ {
				e1, e2 = append(e1, v, v), append(e2, v-8, (v+8+v%5)%n)
			}
			return e1, e2
		}},
		{name: "mesh P=4", p: 4, mesh: true, levels: 3},
		{name: "mesh P=8", p: 8, mesh: true, levels: 3},
	}
	for _, lt := range layouts {
		for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
			cfg := machine.Zero(lt.p)
			cfg.Backend = backend
			err := machine.Run(cfg, func(c *machine.Ctx) {
				var g *Graph
				if lt.mesh {
					g = meshGraph(c, m)
				} else {
					var e1, e2 []int
					if c.Rank() == 0 {
						e1, e2 = lt.edges(lt.n)
					}
					g = Build(c, lt.n, WithLink(e1, e2))
				}
				for level := 0; ; level++ {
					ge := NewGhostExchange(c, g)
					want := refGhostPattern(c.Rank(), c.Procs(), g)
					if d := want.mismatch(patternOf(ge)); d != "" {
						t.Errorf("%s %v level %d rank %d: %s", lt.name, backend, level, c.Rank(), d)
					}
					if level == lt.levels {
						return
					}
					g = coarsen(c, g)
				}
			})
			if err != nil {
				t.Fatalf("%s %v: %v", lt.name, backend, err)
			}
		}
	}
}
