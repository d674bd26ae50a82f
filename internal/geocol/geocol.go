package geocol

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"chaos/internal/dist"
	"chaos/internal/machine"
)

// Graph is one rank's slice of a GeoCoL data structure. Vertices are
// distributed by Home (BLOCK); all per-vertex slices are indexed by
// home-local vertex number.
type Graph struct {
	// N is the global vertex count.
	N int
	// Home is the construction distribution of the vertex space.
	Home dist.BlockDist

	// HasLink, HasGeom, HasLoad report which directives contributed.
	HasLink, HasGeom, HasLoad bool

	// XAdj/Adj form a local CSR: neighbors of home-local vertex l are
	// Adj[XAdj[l]:XAdj[l+1]], as global vertex ids, sorted, with
	// duplicates and self-loops removed.
	XAdj []int
	Adj  []int
	// EdgeW holds per-edge weights parallel to Adj; nil means unit
	// weights. A CONSTRUCT-built graph is unweighted; coarse graphs
	// built by BuildCoarse carry the aggregated multiplicity of the
	// fine edges each coarse edge represents.
	EdgeW []float64
	// NEdges is the global undirected edge count after dedup.
	NEdges int

	// Dim and Coords hold GEOMETRY: Coords[d][l] is coordinate d of
	// home-local vertex l.
	Dim    int
	Coords [][]float64

	// Weights holds LOAD: Weights[l] is the computational weight of
	// home-local vertex l. When no LOAD directive is given, unit
	// weights are assumed by partitioners.
	Weights []float64
}

// Option contributes one directive keyword to a CONSTRUCT.
type Option func(*spec)

type spec struct {
	e1, e2  []int
	hasLink bool
	coords  [][]float64
	weights []float64
}

// WithLink supplies connectivity: edge i links global vertices e1[i]
// and e2[i]. Each rank passes its locally stored slice of the edge
// list (edges may name any vertices). Mirrors
// "LINK(E, edge_list1, edge_list2)".
func WithLink(e1, e2 []int) Option {
	return func(s *spec) {
		if len(e1) != len(e2) {
			panic(fmt.Sprintf("geocol: LINK lists of unequal length %d, %d", len(e1), len(e2)))
		}
		s.e1, s.e2 = e1, e2
		s.hasLink = true
	}
}

// WithGeometry supplies spatial coordinates: coords[d] holds dimension
// d for this rank's home-resident vertices, in home-local order.
// Mirrors "GEOMETRY(ndim, xcord, ycord, zcord)".
func WithGeometry(coords ...[]float64) Option {
	return func(s *spec) { s.coords = coords }
}

// WithLoad supplies per-vertex computational weight for this rank's
// home-resident vertices. Mirrors "LOAD(weight)".
func WithLoad(w []float64) Option {
	return func(s *spec) { s.weights = w }
}

// Build constructs the GeoCoL data structure for n vertices; it is the
// runtime realization of the CONSTRUCT directive (paper Section 4.1.2).
// Collective.
func Build(c *machine.Ctx, n int, opts ...Option) *Graph {
	var s spec
	for _, o := range opts {
		o(&s)
	}
	g := &Graph{N: n, Home: dist.NewBlock(n, c.Procs())}
	localN := g.Home.LocalSize(c.Rank())

	if s.coords != nil {
		g.HasGeom = true
		g.Dim = len(s.coords)
		for d, col := range s.coords {
			if len(col) != localN {
				panic(fmt.Sprintf("geocol: GEOMETRY dim %d has %d entries, want %d", d, len(col), localN))
			}
			cp := make([]float64, localN)
			copy(cp, col)
			g.Coords = append(g.Coords, cp)
		}
		c.Words(localN * g.Dim)
	}
	if s.weights != nil {
		g.HasLoad = true
		if len(s.weights) != localN {
			panic(fmt.Sprintf("geocol: LOAD has %d entries, want %d", len(s.weights), localN))
		}
		g.Weights = make([]float64, localN)
		copy(g.Weights, s.weights)
		c.Words(localN)
	}

	if s.hasLink {
		g.HasLink = true
		g.buildLink(c, s.e1, s.e2)
	} else {
		g.XAdj = make([]int, localN+1)
	}
	return g
}

// buildLink routes each edge endpoint to the home rank of the vertex,
// then assembles the deduplicated local CSR.
func (g *Graph) buildLink(c *machine.Ctx, e1, e2 []int) {
	p := c.Procs()
	out := make([][]int, p)
	emit := func(u, v int) {
		if u < 0 || u >= g.N || v < 0 || v >= g.N {
			panic(fmt.Sprintf("geocol: LINK edge (%d,%d) out of range [0,%d)", u, v, g.N))
		}
		if u == v {
			return // self-loops carry no dependence
		}
		out[g.Home.Owner(u)] = append(out[g.Home.Owner(u)], u, v)
	}
	for i := range e1 {
		emit(e1[i], e2[i])
		emit(e2[i], e1[i])
	}
	c.Words(4 * len(e1))
	in := c.AlltoAllInts(out)

	localN := g.Home.LocalSize(c.Rank())
	lo := g.Home.Lo(c.Rank())
	adj := make([][]int, localN)
	for src := 0; src < p; src++ {
		pairs := in[src]
		for i := 0; i+1 < len(pairs); i += 2 {
			u, v := pairs[i], pairs[i+1]
			adj[u-lo] = append(adj[u-lo], v)
		}
	}
	// Sort and dedup each adjacency list for determinism.
	g.XAdj = make([]int, localN+1)
	g.Adj = g.Adj[:0]
	degSum := 0
	for l := 0; l < localN; l++ {
		lst := adj[l]
		sort.Ints(lst)
		prev := -1
		for _, v := range lst {
			if v != prev {
				g.Adj = append(g.Adj, v)
				prev = v
				degSum++
			}
		}
		g.XAdj[l+1] = len(g.Adj)
	}
	c.Words(3 * degSum)
	g.NEdges = c.SumInt(degSum) / 2
}

// Degree returns the degree of home-local vertex l.
func (g *Graph) Degree(l int) int { return g.XAdj[l+1] - g.XAdj[l] }

// Neighbors returns the sorted global neighbor ids of home-local vertex
// l (do not mutate).
func (g *Graph) Neighbors(l int) []int { return g.Adj[g.XAdj[l]:g.XAdj[l+1]] }

// LocalN returns the number of home-resident vertices on rank.
func (g *Graph) LocalN(rank int) int { return g.Home.LocalSize(rank) }

// Weight returns the LOAD weight of home-local vertex l (1 when no
// LOAD was supplied).
func (g *Graph) Weight(l int) float64 {
	if !g.HasLoad {
		return 1
	}
	return g.Weights[l]
}

// Bytes reports the approximate heap footprint of this rank's slice of
// the graph — the CSR, edge weights, coordinates and load weights — in
// bytes. The service layer's cache uses it to account retained
// coarsening ladders against its memory cap.
func (g *Graph) Bytes() int {
	if g == nil {
		return 0
	}
	b := 8 * (len(g.XAdj) + len(g.Adj))
	b += 8 * (len(g.EdgeW) + len(g.Weights))
	for _, col := range g.Coords {
		b += 8 * len(col)
	}
	return b
}

// Full is a gathered (replicated) GeoCoL graph used by serial
// partitioners such as recursive spectral bisection.
type Full struct {
	N                         int
	HasLink, HasGeom, HasLoad bool
	XAdj, Adj                 []int
	// EdgeW is the per-edge weight parallel to Adj (nil = unit).
	EdgeW   []float64
	Dim     int
	Coords  [][]float64
	Weights []float64
	NEdges  int
}

// Gather assembles the complete GeoCoL graph on every rank;
// collective. The communication is charged to the virtual clock, which
// is part of the paper's "graph generation" cost for connectivity-based
// partitioners.
func (g *Graph) Gather(c *machine.Ctx) *Full {
	f := &Full{
		N: g.N, HasLink: g.HasLink, HasGeom: g.HasGeom, HasLoad: g.HasLoad,
		Dim: g.Dim, NEdges: g.NEdges,
	}
	if g.HasLink {
		// Degrees then adjacency; home ranges are rank-ordered so
		// concatenation lines up with global vertex order.
		degs := make([]int, g.Home.LocalSize(c.Rank()))
		for l := range degs {
			degs[l] = g.Degree(l)
		}
		allDeg := c.AllGatherInts(degs)
		f.XAdj = make([]int, g.N+1)
		for v := 0; v < g.N; v++ {
			f.XAdj[v+1] = f.XAdj[v] + allDeg[v]
		}
		f.Adj = c.AllGatherInts(g.Adj)
		if g.EdgeW != nil {
			f.EdgeW = c.AllGatherFloats(g.EdgeW)
		}
	} else {
		f.XAdj = make([]int, g.N+1)
	}
	if g.HasGeom {
		for _, col := range g.Coords {
			f.Coords = append(f.Coords, c.AllGatherFloats(col))
		}
	}
	if g.HasLoad {
		f.Weights = c.AllGatherFloats(g.Weights)
	}
	return f
}

// Weight returns the LOAD weight of global vertex v (1 when absent).
func (f *Full) Weight(v int) float64 {
	if !f.HasLoad {
		return 1
	}
	return f.Weights[v]
}

// Neighbors returns the neighbors of global vertex v.
func (f *Full) Neighbors(v int) []int { return f.Adj[f.XAdj[v]:f.XAdj[v+1]] }

// Contractor builds coarse graphs of weighted CSR graphs under a
// clustering — the coarse-GeoCoL construction step of multilevel
// partitioning schemes. The zero value is ready to use; reusing one
// Contractor across the calls of a coarsening ladder amortizes its
// scratch arrays, which matters because a multilevel partitioner
// contracts graphs proportional to its entire recursion tree.
type Contractor struct {
	start, next, members []int
	acc                  []float64 // summed weight toward each coarse neighbor
	mark                 []int     // mark[u] == stamp: u already seen for this cluster
	stamp                int
	nbrs                 []int
}

// Contract builds the coarse graph under a clustering. cmap maps each
// of the len(xadj)-1 fine vertices to a coarse vertex in [0, nc); ew
// holds per-edge weights parallel to adj and w per-vertex weights
// (either may be nil, meaning unit weights). The coarse graph
// aggregates faithfully: coarse vertex weights are the sums of their
// members' weights, parallel fine edges between two clusters merge
// into one coarse edge carrying the summed weight, and edges internal
// to a cluster vanish. Coarse adjacency lists follow first-encounter
// order over each cluster's members — deterministic (coarsening
// ladders must replay exactly), though not sorted — and the result
// keeps the symmetric CSR form the fine graph uses. The returned
// slices are freshly allocated; only scratch is reused.
func (ct *Contractor) Contract(xadj, adj []int, ew, w []float64, cmap []int, nc int) (cxadj, cadj []int, cew, cw []float64) {
	n := len(xadj) - 1
	cw = make([]float64, nc)
	for v := 0; v < n; v++ {
		if w == nil {
			cw[cmap[v]]++
		} else {
			cw[cmap[v]] += w[v]
		}
	}

	// Bucket fine vertices by coarse vertex (counting sort) so each
	// coarse adjacency list is assembled in one contiguous scan.
	start := growInts(&ct.start, nc+1)
	for i := range start {
		start[i] = 0
	}
	for v := 0; v < n; v++ {
		start[cmap[v]+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	members := growInts(&ct.members, n)
	next := growInts(&ct.next, nc)
	copy(next, start[:nc])
	for v := 0; v < n; v++ {
		members[next[cmap[v]]] = v
		next[cmap[v]]++
	}

	if len(ct.acc) < nc {
		ct.acc = make([]float64, nc)
		ct.mark = make([]int, nc)
		ct.stamp = 0
	}
	cxadj = make([]int, nc+1)
	cadj = make([]int, 0, len(adj))
	cew = make([]float64, 0, len(adj))
	for c := 0; c < nc; c++ {
		ct.stamp++
		ct.nbrs = ct.nbrs[:0]
		for _, v := range members[start[c]:start[c+1]] {
			for k := xadj[v]; k < xadj[v+1]; k++ {
				u := cmap[adj[k]]
				if u == c {
					continue // internal edge vanishes
				}
				if ct.mark[u] != ct.stamp {
					ct.mark[u] = ct.stamp
					ct.acc[u] = 0
					ct.nbrs = append(ct.nbrs, u)
				}
				if ew == nil {
					ct.acc[u]++
				} else {
					ct.acc[u] += ew[k]
				}
			}
		}
		for _, u := range ct.nbrs {
			cadj = append(cadj, u)
			cew = append(cew, ct.acc[u])
		}
		cxadj[c+1] = len(cadj)
	}
	return cxadj, cadj, cew, cw
}

// growInts returns (*s)[:n], reallocating only when the capacity is
// short; the contents are not cleared.
func growInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	return (*s)[:n]
}

// CoarseAssembler holds the reusable scratch of the distributed
// contraction (BuildCoarse): the ghost copy of the clustering, the
// per-rank weight/edge routing tables, and the per-coarse-vertex
// contribution buckets of the local CSR assembly. Like Contractor it is
// plain per-goroutine state — the zero value is ready, buffers grow to
// the steady-state high-water mark and are reused across levels and
// epochs, and nothing the caller retains aliases them (the coarse Graph
// is always freshly allocated).
type CoarseAssembler struct {
	ghostC []int
	wIDs   [][]int
	wVals  [][]float64
	eIDs   [][]int
	eW     [][]float64
	// end[l] is one past the end of local coarse vertex l's bucket in
	// bucket, which holds the routed contributions grouped by source.
	end    []int
	bucket []coarseContrib
}

// coarseContrib is one routed fine-edge contribution to a bucket:
// global coarse neighbor and weight.
type coarseContrib struct {
	u int
	w float64
}

// growRankInts sizes a per-rank routing table to procs entries and
// resets each entry to length zero, keeping every backing array; the
// float twin below is identical.
func growRankInts(s *[][]int, procs int) [][]int {
	if cap(*s) < procs {
		*s = make([][]int, procs)
	}
	*s = (*s)[:procs]
	for r := range *s {
		(*s)[r] = (*s)[r][:0]
	}
	return *s
}

func growRankFloats(s *[][]float64, procs int) [][]float64 {
	if cap(*s) < procs {
		*s = make([][]float64, procs)
	}
	*s = (*s)[:procs]
	for r := range *s {
		(*s)[r] = (*s)[r][:0]
	}
	return *s
}

// BuildCoarse is the distributed build path of the contraction: it
// collectively contracts a block-distributed Graph under a clustering
// without ever gathering it. cmap maps each of this rank's home-local
// fine vertices to a global coarse vertex id in [0, coarseN); the
// clustering may freely cross rank boundaries (a distributed matcher
// assigns both endpoints of a matched edge the same coarse id).
//
// Every rank routes its fine vertex weights and fine edges to the BLOCK
// owner of the coarse endpoint, where contributions from all ranks are
// aggregated exactly as Contractor.Contract does serially: coarse
// vertex weights are the global sums of their members' weights,
// parallel fine edges between two clusters merge into one coarse edge
// carrying the summed weight, and intra-cluster edges vanish. Because
// the fine CSR is symmetric and both endpoint owners route every edge,
// the coarse CSR comes out symmetric with identical weights on both
// directions. Adjacency lists are sorted by neighbor id, making the
// result independent of which ranks contributed which fine edges.
//
// Summation contract: the local CSR is assembled by a counting pass
// keyed by the local coarse source, so the cost is linear in the
// routed contributions. Contributions land in their source's bucket in
// canonical arrival order (source rank, then message order); each
// bucket is stably sorted by neighbor, and a run of equal neighbors
// sums its weights in that order, starting from 0. The order only
// matters for inexact float sums, and there are none on a ladder:
// CONSTRUCT graphs are unweighted, so every coarse edge weight is an
// integer multiplicity, and integer sums below 2^53 are exact in any
// order. Both directions of a coarse edge therefore carry bitwise
// equal weights.
//
// The returned Graph is block-distributed over coarseN vertices and
// always carries LOAD weights (the aggregated member weights) and
// per-edge weights. ge must be the exchange pattern of g (the caller
// built it for the matching phase already). Collective; communication
// and assembly work are charged to the virtual clock.
//
//chaos:hotpath
func (a *CoarseAssembler) BuildCoarse(c *machine.Ctx, g *Graph, ge *GhostExchange, cmap []int, coarseN int) *Graph {
	me, procs := c.Rank(), c.Procs()
	ghostC := ge.PushIntsInto(c, cmap, a.ghostC)
	a.ghostC = ghostC

	coarse := &Graph{
		N: coarseN, Home: dist.NewBlock(coarseN, procs),
		HasLink: true, HasLoad: true,
	}
	localN := g.LocalN(me)

	// Route (coarse id, weight) and (coarse src, coarse dst, weight) to
	// the coarse owner of the (source) coarse vertex. Edge ids and edge
	// weights travel in two parallel exchanges with matching order.
	wIDs := growRankInts(&a.wIDs, procs)
	wVals := growRankFloats(&a.wVals, procs)
	eIDs := growRankInts(&a.eIDs, procs)
	eW := growRankFloats(&a.eW, procs)
	for l := 0; l < localN; l++ {
		cv := cmap[l]
		r := coarse.Home.Owner(cv)
		wIDs[r] = append(wIDs[r], cv)
		wVals[r] = append(wVals[r], g.Weight(l))
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			var cu int
			// Loc resolves the neighbor to home index or ghost slot with
			// one read — no ownership test, no id lookup.
			if loc := ge.Loc[k]; loc >= 0 {
				cu = cmap[loc]
			} else {
				cu = ghostC[-loc-1]
			}
			if cu == cv {
				continue // intra-cluster edge vanishes
			}
			w := 1.0
			if g.EdgeW != nil {
				w = g.EdgeW[k]
			}
			eIDs[r] = append(eIDs[r], cv, cu)
			eW[r] = append(eW[r], w)
		}
	}
	c.Words(2*len(g.Adj) + 2*localN)
	inWIDs := c.AlltoAllInts(wIDs)
	inWVals := c.AlltoAllFloats(wVals)
	inEIDs := c.AlltoAllInts(eIDs)
	inEW := c.AlltoAllFloats(eW)

	lo2 := coarse.Home.Lo(me)
	localN2 := coarse.Home.LocalSize(me)
	coarse.Weights = make([]float64, localN2)
	for r := 0; r < procs; r++ {
		ids, vals := inWIDs[r], inWVals[r]
		for i, cv := range ids {
			coarse.Weights[cv-lo2] += vals[i]
		}
	}

	// Assemble the local coarse CSR by the counting pass of the
	// summation contract above: count, bucket in arrival order, then
	// sort and merge each bucket.
	end := growInts(&a.end, localN2)
	clear(end)
	for r := 0; r < procs; r++ {
		ids := inEIDs[r]
		for i := 0; i+1 < len(ids); i += 2 {
			end[ids[i]-lo2]++
		}
	}
	total := 0
	for l, n := range end {
		end[l] = total
		total += n
	}
	if cap(a.bucket) < total {
		a.bucket = make([]coarseContrib, total)
	}
	bucket := a.bucket[:total]
	for r := 0; r < procs; r++ {
		ids, ws := inEIDs[r], inEW[r]
		for i := 0; i+1 < len(ids); i += 2 {
			l := ids[i] - lo2
			bucket[end[l]] = coarseContrib{ids[i+1], ws[i/2]}
			end[l]++
		}
	}
	coarse.XAdj = make([]int, localN2+1)
	// Pre-sized to the contribution count, an upper bound on the merged
	// degree sum. EdgeW stays non-nil even when this rank assembled no
	// edges: Gather's EdgeW collective is gated on nil-ness, which must
	// be rank-uniform in a bulk-synchronous machine.
	coarse.Adj = make([]int, 0, total)
	coarse.EdgeW = make([]float64, 0, total)
	lo := 0
	for l, hi := range end {
		bk := bucket[lo:hi]
		lo = hi
		sortByNeighbor(bk)
		for i := 0; i < len(bk); {
			u, w := bk[i].u, 0.0
			for ; i < len(bk) && bk[i].u == u; i++ {
				w += bk[i].w
			}
			coarse.Adj = append(coarse.Adj, u)
			coarse.EdgeW = append(coarse.EdgeW, w)
		}
		coarse.XAdj[l+1] = len(coarse.Adj)
	}
	degSum := len(coarse.Adj)
	c.Words(3 * total)
	coarse.NEdges = c.SumInt(degSum) / 2
	return coarse
}

// insertionMax is the bucket length up to which sortByNeighbor uses
// insertion sort. Buckets are degree-sized, so nearly all of them are
// short; a hub's bucket can hold a contribution per fine vertex, and
// the quadratic insertion sort would dominate there.
const insertionMax = 48

// sortByNeighbor stably sorts a contribution bucket by neighbor id, so
// equal neighbors keep their arrival order for the merge.
func sortByNeighbor(b []coarseContrib) {
	if len(b) > insertionMax {
		slices.SortStableFunc(b, func(x, y coarseContrib) int { return cmp.Compare(x.u, y.u) })
		return
	}
	for i := 1; i < len(b); i++ {
		x := b[i]
		j := i
		for ; j > 0 && b[j-1].u > x.u; j-- {
			b[j] = b[j-1]
		}
		b[j] = x
	}
}
