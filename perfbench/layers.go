package main

// perLayerUnits lists every per-layer metric with its unit. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0 there.
var perLayerUnits = map[string]string{
	"geocol.construct_ms":        "ms",
	"geocol.construct_vs":        "vs",
	"partition.cold_ms":          "ms",
	"partition.cold_vs":          "vs",
	"partition.warm_ms":          "ms",
	"partition.warm_vs":          "vs",
	"partition.recold_count":     "count",
	"remap.redistribute_ms":      "ms",
	"remap.redistribute_vs":      "vs",
	"remap.moved_vertices":       "count",
	"iterpart.assign_ms":         "ms",
	"iterpart.assign_vs":         "vs",
	"schedule.inspect_ms":        "ms",
	"schedule.inspect_vs":        "vs",
	"schedule.ghost_words":       "count",
	"schedule.comm_phases":       "count",
	"registry.reuse_ratio":       "ratio",
	"core.execute_ms":            "ms",
	"core.execute_vs":            "vs",
	"machine.op_vs":              "vs",
	"machine.run_ms":             "ms",
	"machine.untimed_ms":         "ms",
	"service.compute_ms":         "ms",
	"service.compute_vs":         "vs",
	"service.overhead_ms":        "ms",
	"service.hit_ratio":          "ratio",
	"service.evictions":          "count",
	"service.rejected":           "count",
	"service.cache_mb":           "MiB",
	"service.hit_p50_ms":         "ms",
	"service.warm_p50_ms":        "ms",
	"service.cold_p50_ms":        "ms",
	"service.op_p90_ms":          "ms",
	"stream.decode_ms":           "ms",
	"stream.decode_mb_per_s":     "MiB/s",
	"stream.partition_ms":        "ms",
	"runtime.gc_cycles_per_op":   "count",
	"runtime.gc_pause_ms_per_op": "ms",
	"trace.overhead_ms":          "ms",
	"trace.coverage":             "ratio",
}

// spanLayers maps a span name to the metric pair (_ms, _vs) its per-op
// cost feeds.
// perCall marks layers reported per call rather than per op.
var spanLayers = []struct {
	span, prefix string
	perCall      bool
}{
	{"geocol.construct", "geocol.construct", false},
	{"partition.cold", "partition.cold", false},
	{"partition.warm", "partition.warm", false},
	{"remap.redistribute", "remap.redistribute", false},
	{"iterpart.assign", "iterpart.assign", false},
	{"schedule.inspect", "schedule.inspect", false},
	{"core.execute", "core.execute", true},
	{"stream.partition", "stream.partition", false}, // no virtual clock: only _ms is reported
}

// perOp reduces the named spans of each op: per rank the durations
// are summed, then the ranks are max-reduced host-side (no machine
// collective, so the virtual clock is untouched). It returns the mean
// over ops that called it of the per-op wall ms and virtual s, and the
// mean number of calls per rank and op.
func perOp(spans []Span, name string) (wallMS, vs, calls float64) {
	type key struct{ op, rank int }
	type acc struct {
		ms, vs float64
		n      int
	}
	byRank := map[key]*acc{}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		k := key{s.Op, s.Rank}
		a := byRank[k]
		if a == nil {
			a = &acc{}
			byRank[k] = a
		}
		a.ms += s.WallMS()
		a.vs += s.VS()
		a.n++
	}
	ops := map[int]*acc{}
	for k, a := range byRank {
		o := ops[k.op]
		if o == nil {
			o = &acc{}
			ops[k.op] = o
		}
		o.ms = max(o.ms, a.ms)
		o.vs = max(o.vs, a.vs)
		o.n = max(o.n, a.n)
	}
	if len(ops) == 0 {
		return 0, 0, 0
	}
	for _, o := range ops {
		wallMS += o.ms
		vs += o.vs
		calls += float64(o.n)
	}
	k := float64(len(ops))
	return wallMS / k, vs / k, calls / k
}

// rootSelf returns the mean self time of the ops' root spans (the op
// wall time no recorded call covers) and the share of root time the
// calls do cover.
func rootSelf(spans []Span) (selfMS, coverage float64) {
	self := selfNS(spans)
	var totSelf, totDur int64
	n := 0
	for i, s := range spans {
		if s.Parent >= 0 || s.Op < 0 {
			continue
		}
		if s.Rank != -1 && !isRequest(s) {
			continue
		}
		totSelf += self[i]
		totDur += s.End - s.Start
		n++
	}
	if n == 0 || totDur == 0 {
		return 0, 0
	}
	return float64(totSelf) / 1e6 / float64(n), 1 - float64(totSelf)/float64(totDur)
}

func isRequest(s Span) bool { return s.Name == "service.request" }

// perLayer assembles the per-layer metrics of a traced run. plain is
// the untraced run of the same inputs, for the tracing overhead.
func perLayer(plain, traced *runResult) map[string]metric {
	vals := map[string]float64{}
	for _, l := range spanLayers {
		ms, vs, calls := perOp(traced.Spans, l.span)
		if l.perCall && calls > 0 {
			ms, vs = ms/calls, vs/calls
		}
		vals[l.prefix+"_ms"] = ms
		vals[l.prefix+"_vs"] = vs
	}
	self, cov := rootSelf(traced.Spans)
	vals["trace.coverage"] = cov
	if traced.Machine {
		vals["machine.untimed_ms"] = self
		vs := make([]float64, len(traced.Ops))
		for i, op := range traced.Ops {
			vs[i] = op.VS
		}
		vals["machine.op_vs"] = mean(vs)
	}
	n := float64(len(traced.Ops))
	vals["runtime.gc_cycles_per_op"] = float64(traced.Mem.GCs) / n
	vals["runtime.gc_pause_ms_per_op"] = float64(traced.Mem.PauseNS) / 1e6 / n
	vals["trace.overhead_ms"] = median(opWalls(traced)) - median(opWalls(plain))
	for k, v := range traced.Layer {
		vals[k] = v
	}
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{vals[name], unit}
	}
	return out
}
