package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"chaos/internal/mesh"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestReportable(tc.n); got != tc.want {
			t.Errorf("highestReportable(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if q := highestReportable(tc.n); q > 0 && beyond(q, tc.n) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, q*100, beyond(q, tc.n))
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a on another rank
		{ID: 3, Parent: 0, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},
	}
	self := selfNS(spans)
	// op: children cover [10,50) and [80,100): 60 of 100.
	want := []int64{40, 20, 20, 40, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	ms, cov := rootSelf([]Span{
		{ID: 0, Parent: -1, Name: "op", Op: 0, Rank: -1, Start: 0, End: 4e6},
		{ID: 1, Parent: 0, Name: "x", Op: 0, Rank: 0, Start: 0, End: 3e6},
	})
	if ms != 1 || cov != 0.75 {
		t.Errorf("rootSelf = %g ms, coverage %g; want 1 ms, 0.75", ms, cov)
	}
}

func TestPerOpMaxReduce(t *testing.T) {
	spans := []Span{
		// op 0: rank 0 calls twice (3+1 ms), rank 1 once (2 ms).
		{Name: "e", Op: 0, Rank: 0, Start: 0, End: 3e6, VEnd: 0.3},
		{Name: "e", Op: 0, Rank: 0, Start: 5e6, End: 6e6, VStart: 1, VEnd: 1.1},
		{Name: "e", Op: 0, Rank: 1, Start: 0, End: 2e6, VEnd: 0.5},
		// op 1: one rank, 2 ms.
		{Name: "e", Op: 1, Rank: 0, Start: 0, End: 2e6, VEnd: 0.2},
		{Name: "other", Op: 1, Rank: 0, Start: 0, End: 9e6},
	}
	ms, vs, calls := perOp(spans, "e")
	if ms != 3 || vs != 0.35 || calls != 1.5 {
		t.Errorf("perOp = %g ms, %g vs, %g calls; want 3, 0.35, 1.5", ms, vs, calls)
	}
}

func TestCutAndBalance(t *testing.T) {
	// A square 0-1-2-3 with the diagonal 0-2 and a self-loop on 3.
	e1 := []int{0, 1, 2, 3, 0, 3}
	e2 := []int{1, 2, 3, 0, 2, 3}
	part := []int{0, 0, 1, 1}
	if got := edgeCut(e1, e2, part); got != 3 {
		t.Errorf("cut = %d, want 3 (1-2, 3-0, 0-2)", got)
	}
	if got := maxPartRatio([]int{0, 0, 0, 1}, 2); got != 1.5 {
		t.Errorf("max part ratio = %g, want 1.5", got)
	}
	if err := checkPartition(part, 4, 2, 0.05); err != nil {
		t.Errorf("balanced partition rejected: %v", err)
	}
	for _, bad := range [][]int{{0, 0, 1}, {0, 0, 1, 2}, {0, -1, 1, 1}, {0, 0, 0, 0}} {
		if checkPartition(bad, 4, 2, 0.05) == nil {
			t.Errorf("partition %v accepted", bad)
		}
	}
	// 40 vertices in 4 parts: 11 is within 7% plus one vertex, 12 is not.
	p := make([]int, 40)
	for i := range p {
		p[i] = i % 4
	}
	p[1] = 0 // part 0: 11
	if err := checkPartition(p, 40, 4, 0.07); err != nil {
		t.Errorf("11/10 rejected: %v", err)
	}
	p[2] = 0 // part 0: 12
	if checkPartition(p, 40, 4, 0.07) == nil {
		t.Error("12/10 accepted at 7%")
	}
}

func TestSweepMatchesKernel(t *testing.T) {
	e1, e2 := []int{0, 1}, []int{1, 2}
	x := []float64{1, 2, 4}
	y := sweep(3, e1, e2, x)
	out := make([]float64, 2)
	want := make([]float64, 3)
	for i := range e1 {
		mesh.EulerFlux(i, []float64{x[e1[i]], x[e2[i]]}, out)
		want[e1[i]] += out[0]
		want[e2[i]] += out[1]
	}
	if err := checkClose(y, want); err != nil {
		t.Error(err)
	}
	y[1] *= 1 + 1e-6
	if checkClose(y, want) == nil {
		t.Error("a relative error of 1e-6 passed the executor check")
	}
}

func TestLocalRewires(t *testing.T) {
	m := mesh.Generate(1000, 3)
	xadj, adj := csr(m.NNode, m.E1, m.E2)
	gen := func() []rewire {
		return localRewires(rand.New(rand.NewPCG(3, 1)), m.E1, m.E2, xadj, adj, 0.02)
	}
	a, b := gen(), gen()
	if len(a) != int(0.02*float64(m.NEdge())) {
		t.Fatalf("%d rewires, want 2%% of %d edges", len(a), m.NEdge())
	}
	seen := map[int]bool{}
	for i, r := range a {
		if r != b[i] {
			t.Fatal("same seed gave different rewires")
		}
		if seen[r.Edge] {
			t.Fatalf("edge %d rewired twice", r.Edge)
		}
		seen[r.Edge] = true
		if r.NewEnd == m.E1[r.Edge] || r.NewEnd == m.E2[r.Edge] {
			t.Fatalf("rewire %+v makes a self-loop or changes nothing", r)
		}
		if !withinTwoHops(xadj, adj, m.E2[r.Edge], r.NewEnd) {
			t.Fatalf("rewire %+v leaves the two-hop neighbourhood", r)
		}
	}
}

func withinTwoHops(xadj, adj []int, v, u int) bool {
	for _, w := range adj[xadj[v]:xadj[v+1]] {
		if w == u {
			return true
		}
		for _, z := range adj[xadj[w]:xadj[w+1]] {
			if z == u {
				return true
			}
		}
	}
	return false
}

// ownLayers are per-layer metrics each workload must measure.
var ownLayers = map[string][]string{
	"mesh-pipeline": {"geocol.construct_ms", "partition.cold_vs", "schedule.inspect_ms", "core.execute_ms",
		"machine.op_vs", "machine.run_ms", "trace.coverage"},
	"mesh-adapt": {"partition.warm_ms", "remap.redistribute_vs", "schedule.inspect_ms", "schedule.inspect_vs",
		"core.execute_vs", "machine.op_vs", "trace.coverage"},
	"daemon-churn": {"service.hit_p50_ms", "service.warm_p50_ms", "service.cold_p50_ms", "service.compute_ms",
		"service.compute_vs", "service.overhead_ms", "service.hit_ratio", "service.cache_mb"},
	"stream-ingest": {"stream.partition_ms", "stream.decode_ms", "stream.decode_mb_per_s", "trace.coverage"},
}

// TestSmoke runs every workload at tiny sizes, untraced and traced,
// with one op's output deliberately damaged: exactly that op must be
// counted as failed, and tracing must not change op_vs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := config{Workload: name, Seed: 5, Seconds: 1, Work: t.TempDir(), Small: true, Corrupt: -1}
			rep, err := run(cfg, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("clean run failed %d of %d ops", rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(perLayerUnits) {
				t.Errorf("traced run reports %d metrics, want %d", len(rep.Metrics), len(perLayerUnits))
			}
			for _, k := range ownLayers[name] {
				if !(rep.Metrics[k].Value > 0) {
					t.Errorf("per-layer metric %s = %g, want > 0 on %s", k, rep.Metrics[k].Value, name)
				}
			}
			cfg.Corrupt = 1
			rep, err = run(cfg, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed != 1 {
				t.Fatalf("corrupted run: correct=%v, %d failed, want exactly 1", rep.Correct, rep.Failed)
			}
			for k, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %g, want > 0", k, m.Value)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's metric lists
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(doc.Workloads), len(workloads))
	}
	e2e := endToEnd(&runResult{SetupS: []float64{1}, Ops: []opResult{{WallS: 1}}, WallS: 1})
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics listed, %d reported", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: listed unit %q, reported %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(doc.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per-layer metrics listed, %d reported", len(doc.PerLayer), len(perLayerUnits))
	}
	for _, m := range doc.PerLayer {
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: listed unit %q, reported %q", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}
}
