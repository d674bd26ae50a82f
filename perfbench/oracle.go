package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"chaos/internal/mesh"
)

// The oracle checks every op's output independently of the code under
// test: cut and balance are recomputed from the generated edge lists,
// and the executor's result is compared with a serial sweep.

// edgeCut counts edge-list entries whose endpoints lie in different
// parts, skipping self-loops; the daemon's Response.Cut uses the same
// definition.
func edgeCut(e1, e2, part []int) int {
	cut := 0
	for i := range e1 {
		if e1[i] != e2[i] && part[e1[i]] != part[e2[i]] {
			cut++
		}
	}
	return cut
}

// digest is the FNV-1a hash of a partition vector.
func digest(part []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range part {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// maxPartRatio is the largest part's size over the ideal n/nparts.
func maxPartRatio(part []int, nparts int) float64 {
	if len(part) == 0 {
		return 0
	}
	sizes := make([]int, nparts)
	for _, p := range part {
		if p >= 0 && p < nparts {
			sizes[p]++
		}
	}
	big := 0
	for _, s := range sizes {
		big = max(big, s)
	}
	return float64(big) * float64(nparts) / float64(len(part))
}

// checkPartition enforces the output contract of a partition: length
// n, every part in [0, nparts), and the largest part within the
// method's declared tolerance tol of ideal (plus one vertex of
// rounding).
func checkPartition(part []int, n, nparts int, tol float64) error {
	if len(part) != n {
		return fmt.Errorf("partition has %d entries, want %d", len(part), n)
	}
	for v, p := range part {
		if p < 0 || p >= nparts {
			return fmt.Errorf("vertex %d in part %d, want [0, %d)", v, p, nparts)
		}
	}
	ideal := float64(n) / float64(nparts)
	if r := maxPartRatio(part, nparts); r > 1+tol+1/ideal {
		return fmt.Errorf("largest part is %.4fx ideal, declared tolerance %.2f", r, tol)
	}
	return nil
}

// sweep returns one serial pass of the Euler edge loop: the
// contribution every vertex's y receives from one Execute, given x.
func sweep(n int, e1, e2 []int, x []float64) []float64 {
	y := make([]float64, n)
	in := make([]float64, 2)
	out := make([]float64, 2)
	for i := range e1 {
		in[0], in[1] = x[e1[i]], x[e2[i]]
		mesh.EulerFlux(i, in, out)
		y[e1[i]] += out[0]
		y[e2[i]] += out[1]
	}
	return y
}

// yTol is the relative tolerance of the executor check: the parallel
// run sums each vertex's contributions in another order than the
// serial sweep, so the last few bits may differ.
const yTol = 1e-9

// checkClose compares a gathered result with its serial reference.
func checkClose(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); !(d <= yTol*(1+math.Abs(want[v]))) {
			return fmt.Errorf("y[%d] = %.17g, serial reference %.17g", v, got[v], want[v])
		}
	}
	return nil
}

// csr builds the undirected adjacency of an edge list.
func csr(n int, e1, e2 []int) (xadj, adj []int) {
	xadj = make([]int, n+1)
	for i := range e1 {
		xadj[e1[i]+1]++
		xadj[e2[i]+1]++
	}
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	adj = make([]int, xadj[n])
	fill := append([]int(nil), xadj[:n]...)
	for i := range e1 {
		a, b := e1[i], e2[i]
		adj[fill[a]] = b
		fill[a]++
		adj[fill[b]] = a
		fill[b]++
	}
	return xadj, adj
}

// rewire is one generated mesh adaptation: edge Edge's second endpoint
// moves to NewEnd.
type rewire struct{ Edge, NewEnd int }

// localRewires picks frac of the base mesh's edges (distinct) and
// re-points each one's second endpoint at a vertex within two hops of
// the old endpoint, never at the edge's other end. Drawn from rng
// only, so a seed fixes the pattern; relative to the base mesh, so
// every draw costs the same to absorb.
func localRewires(rng *rand.Rand, e1, e2, xadj, adj []int, frac float64) []rewire {
	k := int(frac * float64(len(e1)))
	picked := make(map[int]bool, k)
	out := make([]rewire, 0, k)
	for len(out) < k {
		e := rng.IntN(len(e1))
		if picked[e] {
			continue
		}
		v := e2[e]
		u := -1
		for try := 0; try < 8 && u < 0; try++ {
			w := adj[xadj[v]+rng.IntN(xadj[v+1]-xadj[v])]
			c := adj[xadj[w]+rng.IntN(xadj[w+1]-xadj[w])]
			if c != e1[e] && c != v {
				u = c
			}
		}
		if u < 0 {
			continue
		}
		picked[e] = true
		out = append(out, rewire{e, u})
	}
	return out
}

// applyRewires returns a copy of e2 with the rewires applied.
func applyRewires(e2 []int, rw []rewire) []int {
	out := append([]int(nil), e2...)
	for _, r := range rw {
		out[r.Edge] = r.NewEnd
	}
	return out
}
