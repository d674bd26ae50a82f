package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"chaos/internal/mesh"
	"chaos/internal/stream"
)

// stream-ingest: one op is one out-of-core STREAM partition of a
// "cs v1" edge-stream file read through stream.NewReader. Set-up
// writes one file per op from the seeded lattice generator (the same
// lattice under different vertex numberings), so the run's figures
// average over many inputs: STREAM's cut depends strongly on the
// arrival order. The warm-up op partitions the first op's file, and
// the two partitions must be identical. No machine, schedule or
// service code runs here.

type ingestSize struct {
	Side      int // lattice side: Side^3 vertices
	NParts    int
	Restreams int
}

func ingestSizes(cfg config) (ingestSize, int) {
	if cfg.Small {
		return ingestSize{Side: 12, NParts: 8, Restreams: 2}, 3
	}
	return ingestSize{Side: 48, NParts: 8, Restreams: 2}, opCount(cfg, 1.8)
}

// streamTol is STREAM's declared balance: BalanceSlack's default 5%.
const streamTol = 0.05

// writeLattice writes the seeded lattice mesh as an edge-stream file.
func writeLattice(path string, ls *mesh.LatticeSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := stream.Copy(f, stream.FromSource(ls, 0)); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ingestOnce partitions the file once.
func ingestOnce(path string, sz ingestSize, seed uint64, tr *Recorder, op int) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := stream.NewReader(f)
	if err != nil {
		return nil, err
	}
	var part []int
	tr.Time("stream.partition", op, 0, -1, nil, func() {
		part, err = stream.Partition(rd, sz.NParts, stream.Options{Restreams: sz.Restreams, Seed: seed})
	})
	return part, err
}

// latticeCut counts the lattice edges cut by part.
func latticeCut(ls *mesh.LatticeSource, part []int) int {
	cut := 0
	var buf []int
	for v := 0; v < ls.NumVertices(); v++ {
		buf = ls.AppendNeighbors(v, buf[:0])
		for _, u := range buf {
			if u > v && part[u] != part[v] {
				cut++
			}
		}
	}
	return cut
}

// runIngest is the stream-ingest workload.
func runIngest(cfg config, tr *Recorder) (*runResult, error) {
	sz, nops := ingestSizes(cfg)
	paths := make([]string, nops)
	for v := range paths {
		paths[v] = filepath.Join(cfg.Work, fmt.Sprintf("ingest-%d.cs", v))
	}
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	setup, sources, err := timeSetup(3, func() ([]*mesh.LatticeSource, error) {
		srcs := make([]*mesh.LatticeSource, nops)
		for v := range srcs {
			srcs[v] = mesh.NewLatticeSource(sz.Side, sz.Side, sz.Side, meshSeed(cfg.Seed, v))
			if err := writeLattice(paths[v], srcs[v]); err != nil {
				return nil, err
			}
		}
		return srcs, nil
	})
	if err != nil {
		return nil, err
	}
	res := &runResult{SetupS: setup, Layer: map[string]float64{}}
	warm, err := ingestOnce(paths[0], sz, cfg.Seed, nil, -1)
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	parts := make([][]int, nops)
	errs := make([]error, nops)
	mw := startMem()
	t0 := time.Now()
	for k := 0; k < nops; k++ {
		start := tr.Now()
		o0 := time.Now()
		parts[k], errs[k] = ingestOnce(paths[k], sz, cfg.Seed, tr, k)
		res.Ops = append(res.Ops, opResult{WallS: time.Since(o0).Seconds()})
		root := tr.Add(Span{Name: "op", Op: k, Rank: -1, Parent: -1, Start: start, End: tr.Now()})
		tr.SetParent(k, root)
	}
	res.WallS = time.Since(t0).Seconds()
	res.Mem = mw.stop()

	for k, part := range parts {
		op := &res.Ops[k]
		if errs[k] != nil {
			op.Fail = "stream-error"
			continue
		}
		if k == cfg.Corrupt {
			part[0] = sz.NParts
		}
		op.Ratio, op.Digest = maxPartRatio(part, sz.NParts), digest(part)
		switch {
		case checkPartition(part, sources[k].NumVertices(), sz.NParts, streamTol) != nil:
			op.Fail = "partition-contract"
		case k == 0 && !equalInts(warm, part):
			op.Fail = "stream-determinism"
		}
		op.Cut = float64(latticeCut(sources[k], part))
	}
	if tr != nil {
		if err := measureDecode(paths[0], res.Layer); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureDecode times five full decode passes (Reader.Next until EOF)
// and records the median pass and the decode bandwidth.
func measureDecode(path string, layer map[string]float64) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	var secs []float64
	for i := 0; i < 5; i++ {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rd, err := stream.NewReader(f)
		if err == nil {
			var s stream.Slab
			for err == nil {
				err = rd.Next(&s)
			}
			if err == io.EOF {
				err = nil
			}
		}
		secs = append(secs, time.Since(t0).Seconds())
		f.Close()
		if err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
	}
	d := median(secs)
	layer["stream.decode_ms"] = d * 1e3
	layer["stream.decode_mb_per_s"] = float64(st.Size()) / (1 << 20) / d
	return nil
}
