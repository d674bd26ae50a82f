package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"time"

	"chaos/internal/mesh"
	"chaos/internal/service"
)

// daemon-churn: one op is one request to an in-process chaosd over
// loopback TCP. One client runs a closed loop (a solver waits for its
// partition before it asks again); a second concurrent client would
// make each latency depend on how the two happen to overlap on a
// 2-core host, which measures the scheduler. The request sequence is
// generated up front from the seed: in every block of 20 requests, 14
// re-upload a base mesh (cache hits), 5 send a fresh churn delta
// against a base (warm: the base's retained ladder is reused), and 1
// uploads a never-seen mesh (cold; these also push older entries out
// of the bounded cache). The base meshes' cold uploads are set-up.

type daemonSize struct {
	NTarget int // vertex target of every mesh
	Bases   int
	NParts  int
	Procs   int
	Churn   float64 // share of a base's edges a delta re-points
	// CacheMiB bounds the daemon's cache: room for the bases and about
	// a hundred transient entries, so cold uploads drive eviction
	// while the bases, touched every few requests, stay resident.
	CacheMiB int64
}

func daemonSizes(cfg config) (daemonSize, int) {
	if cfg.Small {
		return daemonSize{NTarget: smallMesh, Bases: 2, NParts: 4, Procs: 2, Churn: 0.01, CacheMiB: 8}, 2 * blockLen
	}
	// The client sends whole blocks, at least enough for 20 cold
	// requests (the percentile rule's median).
	blocks := max(2*minBeyond, int(float64(cfg.Seconds)*daemonBlocksPerSec+0.5))
	return daemonSize{NTarget: 8000, Bases: 4, NParts: 8, Procs: 4, Churn: 0.01, CacheMiB: 64},
		blockLen * blocks
}

// daemonBlocksPerSec calibrates the op count: the client answers
// about 45 requests a second on a 2-core 2.1 GHz Xeon.
const daemonBlocksPerSec = 2.2

// blockMix is one block of a client's sequence: 14 hits, 5 warm, 1 cold.
var blockMix = map[string]int{"hit": 14, "warm": 5, "cold": 1}

const blockLen = 20

// daemonReq is one generated request and the answer it must get.
type daemonReq struct {
	class string
	base  int        // hit and warm: the base mesh
	mesh  *mesh.Mesh // cold: the never-seen mesh
	delta []rewire   // warm: the churn delta
}

// daemonInputs are the generated inputs of one daemon-churn run.
type daemonInputs struct {
	bases []*mesh.Mesh
	seq   []daemonReq
}

// meshSeed derives distinct mesh seeds: bases use slots below 1000,
// cold meshes 1000 + j.
func meshSeed(seed uint64, slot int) uint64 { return seed*1_000_003 + uint64(slot) }

func genDaemon(cfg config, sz daemonSize, nOps int) *daemonInputs {
	in := &daemonInputs{bases: make([]*mesh.Mesh, sz.Bases)}
	type adjacency struct{ xadj, adj []int }
	adjs := make([]adjacency, sz.Bases)
	for b := range in.bases {
		m := mesh.Generate(sz.NTarget, meshSeed(cfg.Seed, b))
		in.bases[b] = m
		adjs[b].xadj, adjs[b].adj = csr(m.NNode, m.E1, m.E2)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xd43a0))
	in.seq = make([]daemonReq, 0, nOps)
	hits, warms, colds := 0, 0, 0
	for len(in.seq) < nOps {
		block := make([]string, 0, blockLen)
		for _, class := range []string{"hit", "warm", "cold"} {
			for i := 0; i < blockMix[class]; i++ {
				block = append(block, class)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			if len(in.seq) == nOps {
				break
			}
			r := daemonReq{class: class}
			switch class {
			case "hit":
				r.base = hits % sz.Bases
				hits++
			case "warm":
				// Round-robin keeps every base's graph recently used.
				r.base = warms % sz.Bases
				warms++
				b := in.bases[r.base]
				r.delta = localRewires(rng, b.E1, b.E2, adjs[r.base].xadj, adjs[r.base].adj, sz.Churn)
			case "cold":
				r.mesh = mesh.Generate(sz.NTarget, meshSeed(cfg.Seed, 1000+colds))
				r.mesh.X, r.mesh.Y, r.mesh.Z = nil, nil, nil // only the edges are sent
				colds++
			}
			in.seq = append(in.seq, r)
		}
	}
	return in
}

// daemon is one running in-process chaosd with its client.
type daemon struct {
	srv    *service.Server
	served chan error
	client *service.Client
	cold   []*service.Response // each base's cold answer
}

func (sz daemonSize) request(e1, e2 []int, n int) *service.Request {
	return &service.Request{NNode: n, NParts: sz.NParts, Procs: sz.Procs, Spec: multilevel, E1: e1, E2: e2}
}

// startDaemon starts a server on a loopback port, connects the
// client and uploads every base mesh cold.
func startDaemon(sz daemonSize, in *daemonInputs) (*daemon, error) {
	d := &daemon{
		srv:    service.New(service.Options{Workers: 2, CacheBytes: sz.CacheMiB << 20}),
		served: make(chan error, 1),
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	go func() { d.served <- d.srv.Serve(l) }()
	if d.client, err = service.Dial("tcp", l.Addr().String()); err != nil {
		d.close()
		return nil, err
	}
	for _, b := range in.bases {
		resp, err := d.client.Do(context.Background(), sz.request(b.E1, b.E2, b.NNode))
		if err != nil {
			d.close()
			return nil, fmt.Errorf("base upload: %w", err)
		}
		if resp.Served != service.ServedCold {
			d.close()
			return nil, fmt.Errorf("base upload served %v, want cold", resp.Served)
		}
		d.cold = append(d.cold, resp)
	}
	return d, nil
}

// close disconnects the client, shuts the server down and waits for
// its accept loop to return.
func (d *daemon) close() {
	if d.client != nil {
		d.client.Close()
	}
	d.srv.Close()
	<-d.served
}

// daemonOp is one answered request as the client saw it.
type daemonOp struct {
	start, end int64 // recorder clock
	wall       float64
	resp       *service.Response
	err        error
}

// runDaemon is the daemon-churn workload.
func runDaemon(cfg config, tr *Recorder) (*runResult, error) {
	sz, nOps := daemonSizes(cfg)
	var in *daemonInputs
	var d *daemon
	var setup []float64
	for rep := 0; rep < 3; rep++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		in = genDaemon(cfg, sz, nOps)
		var err error
		if d, err = startDaemon(sz, in); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer d.close()

	// One warm-up request (a hit), excluded from timing.
	b := in.bases[0]
	if _, err := d.client.Do(context.Background(), sz.request(b.E1, b.E2, b.NNode)); err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	before := d.srv.Metrics()
	ops := make([]daemonOp, len(in.seq))
	mw := startMem()
	t0 := time.Now()
	for j, r := range in.seq {
		req := d.requestFor(sz, in, r)
		o := &ops[j]
		o.start = tr.Now()
		t := time.Now()
		o.resp, o.err = d.client.Do(context.Background(), req)
		o.wall = time.Since(t).Seconds()
		o.end = tr.Now()
	}
	wall := time.Since(t0).Seconds()
	mem := mw.stop()
	after := d.srv.Metrics()
	return checkDaemon(cfg, sz, in, d, ops, before, after, wall, mem, setup, tr), nil
}

// requestFor renders a generated request. Hits re-send the base's
// full edge lists; warm requests send only the delta against the
// base's fingerprint.
func (d *daemon) requestFor(sz daemonSize, in *daemonInputs, r daemonReq) *service.Request {
	switch r.class {
	case "cold":
		return sz.request(r.mesh.E1, r.mesh.E2, r.mesh.NNode)
	case "warm":
		delta := make([]service.EdgeRewire, len(r.delta))
		for i, rw := range r.delta {
			delta[i] = service.EdgeRewire{Edge: rw.Edge, NewEnd: rw.NewEnd}
		}
		return &service.Request{NNode: in.bases[r.base].NNode, NParts: sz.NParts, Procs: sz.Procs,
			Spec: multilevel, Base: d.cold[r.base].Fingerprint, Delta: delta}
	default:
		b := in.bases[r.base]
		return sz.request(b.E1, b.E2, b.NNode)
	}
}

var servedAs = map[string]service.Served{"hit": service.ServedHit, "warm": service.ServedWarm, "cold": service.ServedCold}

// checkDaemon checks every response and assembles the run: the class
// the server reports must be the generated one, the partition must
// meet the contract, Response.Cut must equal the cut recomputed from
// Part on the request's own edges, and a hit must be bit-identical to
// its base's cold answer.
func checkDaemon(cfg config, sz daemonSize, in *daemonInputs, d *daemon, ops []daemonOp,
	before, after service.Metrics, wall float64, mem memDelta, setup []float64, tr *Recorder) *runResult {
	res := &runResult{SetupS: setup, WallS: wall, Mem: mem, Layer: map[string]float64{}}
	lat := map[string][]float64{}
	var all, overhead, computeMS, computeVS []float64
	for opID, o := range ops {
		r := in.seq[opID]
		op := opResult{WallS: o.wall, Class: r.class}
		if opID == cfg.Corrupt && o.resp != nil {
			o.resp.Part[0] = (o.resp.Part[0] + 1) % sz.NParts
		}
		op.Fail = checkResponse(sz, in, d, r, o)
		compute := 0.0
		if o.resp != nil {
			op.VS, op.Cut = o.resp.VirtualS, float64(o.resp.Cut)
			op.Ratio, op.Digest = maxPartRatio(o.resp.Part, sz.NParts), digest(o.resp.Part)
			if o.resp.Served != service.ServedHit {
				compute = o.resp.WallMS
				computeMS = append(computeMS, o.resp.WallMS)
				computeVS = append(computeVS, o.resp.VirtualS)
			}
		}
		res.Ops = append(res.Ops, op)
		ms := o.wall * 1e3
		all = append(all, ms)
		lat[r.class] = append(lat[r.class], ms)
		overhead = append(overhead, ms-compute)
		if tr != nil {
			root := tr.Add(Span{Name: "service.request", Op: opID, Rank: 0, Parent: -1, Start: o.start, End: o.end})
			if compute > 0 {
				// The server reports its compute time, not its
				// position: the child is placed at the end of the
				// request, ahead of nothing but the reply.
				cs := o.end - int64(compute*1e6)
				tr.Add(Span{Name: "service.compute", Op: opID, Rank: 0, Parent: root, Start: max(cs, o.start), End: o.end,
					VEnd: o.resp.VirtualS})
			}
		}
	}
	n := float64(len(all))
	L := res.Layer
	L["service.hit_p50_ms"] = median(lat["hit"])
	L["service.warm_p50_ms"] = median(lat["warm"])
	L["service.cold_p50_ms"] = median(lat["cold"])
	L["service.op_p90_ms"] = quantile(all, 0.9)
	L["service.overhead_ms"] = median(overhead)
	L["service.compute_ms"] = mean(computeMS)
	L["service.compute_vs"] = mean(computeVS)
	L["service.hit_ratio"] = float64(after.Hits-before.Hits) / n
	L["service.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	L["service.rejected"] = float64(after.Rejected - before.Rejected)
	L["service.cache_mb"] = float64(after.Cache.Bytes) / (1 << 20)
	return res
}

func checkResponse(sz daemonSize, in *daemonInputs, d *daemon, r daemonReq, o daemonOp) string {
	if o.err != nil {
		return "daemon-error"
	}
	resp := o.resp
	if resp.Served != servedAs[r.class] {
		return "served-class"
	}
	m := r.mesh
	if r.class != "cold" {
		m = in.bases[r.base]
	}
	e1, e2 := m.E1, m.E2
	if r.class == "warm" {
		e2 = applyRewires(e2, r.delta)
	}
	if checkPartition(resp.Part, m.NNode, sz.NParts, multilevelTol) != nil {
		return "partition-contract"
	}
	if edgeCut(e1, e2, resp.Part) != resp.Cut {
		return "cut-recompute"
	}
	if r.class == "hit" && !equalInts(resp.Part, d.cold[r.base].Part) {
		return "hit-bit-identity"
	}
	return ""
}
