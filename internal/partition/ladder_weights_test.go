package partition

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// TestLadderEdgeWeightsIntegralSymmetric pins the summation contract of
// geocol's BuildCoarse over a full MULTILEVEL ladder of the 21952-node
// mesh at P=8: CONSTRUCT graphs are unweighted, so every coarse edge
// weight is a positive integer multiplicity (whose sum is exact in any
// order), and both directions of every coarse edge carry bitwise-equal
// weights. Checked on both backends.
func TestLadderEdgeWeightsIntegralSymmetric(t *testing.T) {
	m := bigMesh()
	const p = 8
	for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
		cfg := machine.Zero(p)
		cfg.Backend = backend
		levels := 0
		err := machine.Run(cfg, func(c *machine.Ctx) {
			eb := m.NEdge() / p
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == p-1 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			_, ld := Multilevel{}.PartitionLadder(c, g, p)
			if ld == nil {
				t.Errorf("%v: no ladder retained", backend)
				return
			}
			for i, lv := range ld.levels {
				f := lv.coarse.Gather(c)
				if c.Rank() != 0 {
					continue
				}
				levels++
				if d := edgeWeightDefect(f); d != "" {
					t.Errorf("%v level %d (N=%d): %s", backend, i+1, f.N, d)
				}
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if levels < 3 {
			t.Errorf("%v: ladder has %d coarse levels, want a full ladder", backend, levels)
		}
	}
}

// edgeWeightDefect returns a description of the first coarse edge whose
// weight is not a positive integer or differs bitwise from its reverse
// edge's weight, or "" when there is none.
func edgeWeightDefect(f *geocol.Full) string {
	for v := 0; v < f.N; v++ {
		for k := f.XAdj[v]; k < f.XAdj[v+1]; k++ {
			u, w := f.Adj[k], f.EdgeW[k]
			if w < 1 || w != math.Trunc(w) {
				return fmt.Sprintf("edge (%d,%d) weight %v is not a positive integer", v, u, w)
			}
			j, ok := slices.BinarySearch(f.Neighbors(u), v)
			if !ok {
				return fmt.Sprintf("edge (%d,%d) has no reverse edge", v, u)
			}
			if math.Float64bits(f.EdgeW[f.XAdj[u]+j]) != math.Float64bits(w) {
				return fmt.Sprintf("edge (%d,%d) weight %v differs from its reverse %v", v, u, w, f.EdgeW[f.XAdj[u]+j])
			}
		}
	}
	return ""
}
