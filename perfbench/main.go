// Command perfbench is the repository's benchmark: fixed, seeded work
// on four workloads that together cover the runtime's layers, timed on
// host wall time and on the simulated iPSC/860's virtual clock, with
// every op's output checked. See README.md for the workloads and
// metrics; run it through run.sh, which builds it from source.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics of an untraced run; with --trace
// 1 the workload runs untraced and then traced, and the metrics are
// the per-layer figures of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Work     string // scratch directory for generated files
	// Small selects the tiny sizes of the smoke test.
	Small bool
	// Corrupt is the index of the timed op whose output is deliberately
	// damaged before it is checked (the smoke test's proof that the
	// oracle counts failures); -1 disables it.
	Corrupt int
}

// opResult is one timed op.
type opResult struct {
	WallS float64
	// VS is the op's virtual makespan in iPSC/860 seconds (0 where the
	// op drives no simulated machine itself).
	VS    float64
	Cut   float64
	Ratio float64 // largest part over ideal
	// Digest fingerprints the op's partition, so two runs of one seed
	// can be compared part for part.
	Digest uint64
	Class  string // daemon request class: hit, warm or cold
	// Fail names the first check the op failed ("" when it passed).
	Fail string
}

// runResult is one pass over a workload's fixed op sequence.
type runResult struct {
	SetupS []float64 // one entry per set-up repetition
	Ops    []opResult
	WallS  float64 // wall time of the timed region, for throughput
	// Machine marks runs whose ops are simulated-machine runs the
	// benchmark drives itself (op VS is their makespan).
	Machine bool
	Mem     memDelta
	// Layer holds per-layer figures the workload measures itself
	// (counts, server metrics, derived splits).
	Layer map[string]float64
	Spans []Span
}

// workload runs one pass. tr is nil on the untraced run.
type workload func(cfg config, tr *Recorder) (*runResult, error)

var workloads = map[string]workload{
	"mesh-pipeline": runPipeline,
	"mesh-adapt":    runAdapt,
	"daemon-churn":  runDaemon,
	"stream-ingest": runIngest,
}

// memDelta is the Go runtime's allocation and GC activity over the
// timed region.
type memDelta struct {
	AllocBytes uint64
	GCs        uint32
	PauseNS    uint64
}

// memWindow samples runtime.MemStats at the start of a timed region.
type memWindow runtime.MemStats

func startMem() *memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (*memWindow)(&ms)
}

func (w *memWindow) stop() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{
		AllocBytes: ms.TotalAlloc - w.TotalAlloc,
		GCs:        ms.NumGC - w.NumGC,
		PauseNS:    ms.PauseTotalNs - w.PauseTotalNs,
	}
}

// timeSetup runs set-up reps times, each from a collected heap, and
// returns the wall seconds of each repetition and the last one's
// value, which the timed ops use.
func timeSetup[T any](reps int, f func() (T, error)) ([]float64, T, error) {
	var v T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = f(); err != nil {
			return nil, v, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, v, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(r *runResult) map[string]metric {
	n := float64(len(r.Ops))
	var wall, cut []float64
	worst := 0.0
	for _, op := range r.Ops {
		wall = append(wall, op.WallS*1e3)
		cut = append(cut, op.Cut)
		worst = math.Max(worst, op.Ratio)
	}
	return map[string]metric{
		"setup_s":         {median(r.SetupS), "s"},
		"ops_per_s":       {n / r.WallS, "1/s"},
		"op_p50_ms":       {median(wall), "ms"},
		"alloc_mb_per_op": {float64(r.Mem.AllocBytes) / (1 << 20) / n, "MiB"},
		"edge_cut":        {mean(cut), "edges"},
		"max_part_ratio":  {worst, "ratio"},
	}
}

// tally counts attempted and failed ops and names each failed check.
func tally(w io.Writer, label string, r *runResult) (attempted, failed int) {
	counts := map[string]int{}
	for _, op := range r.Ops {
		if op.Fail != "" {
			counts[op.Fail]++
			failed++
		}
	}
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "FAILED %s: %d op(s) failed check %q\n", label, counts[k], k)
	}
	return len(r.Ops), failed
}

// compareRuns checks that the traced run computed exactly what the
// untraced run did: tracing reads clocks but must not move them.
func compareRuns(plain, traced *runResult) string {
	if len(plain.Ops) != len(traced.Ops) {
		return "trace-op-count"
	}
	for i := range plain.Ops {
		a, b := plain.Ops[i], traced.Ops[i]
		if a.VS != b.VS || a.Cut != b.Cut || a.Ratio != b.Ratio || a.Class != b.Class || a.Digest != b.Digest {
			return "trace-vs-identity"
		}
	}
	return ""
}

// opWalls returns the op wall times in milliseconds.
func opWalls(r *runResult) []float64 {
	out := make([]float64, len(r.Ops))
	for i, op := range r.Ops {
		out[i] = op.WallS * 1e3
	}
	return out
}

// printSummary writes the human-readable part of the report.
func printSummary(w io.Writer, label string, r *runResult) {
	walls := opWalls(r)
	n := len(walls)
	q := highestReportable(n)
	fmt.Fprintf(w, "%s: %d timed ops, %.3f s timed, set-up reps %v\n", label, n, r.WallS, fmtList(r.SetupS))
	switch {
	case q == 0:
		fmt.Fprintf(w, "  op latency: p50 %.3f ms (n=%d; fewer than %d samples beyond the median)\n", median(walls), n, minBeyond)
	case q == 0.5:
		fmt.Fprintf(w, "  op latency: p50 %.3f ms (n=%d, %d beyond p50)\n", median(walls), n, beyond(q, n))
	default:
		fmt.Fprintf(w, "  op latency: p50 %.3f ms, p%g %.3f ms (n=%d, %d beyond p%g)\n",
			median(walls), q*100, quantile(walls, q), n, beyond(q, n), q*100)
	}
	fmt.Fprintf(w, "  alloc %.1f MiB over %d GC cycles (%.3f ms paused)\n",
		float64(r.Mem.AllocBytes)/(1<<20), r.Mem.GCs, float64(r.Mem.PauseNS)/1e6)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// run executes the benchmark and returns its report.
func run(cfg config, traced bool, w io.Writer) (*report, error) {
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return nil, err
	}
	plain, err := wl(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	printSummary(w, cfg.Workload, plain)
	att, failed := tally(w, cfg.Workload, plain)
	rep := &report{Metrics: endToEnd(plain)}
	if traced {
		tr := NewRecorder()
		tres, err := wl(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", cfg.Workload, err)
		}
		tres.Spans = tr.Spans()
		printSummary(w, cfg.Workload+" (traced)", tres)
		ta, tf := tally(w, cfg.Workload+" (traced)", tres)
		att += ta
		failed += tf
		if name := compareRuns(plain, tres); name != "" {
			fmt.Fprintf(w, "FAILED %s: traced run differs from untraced run (check %q)\n", cfg.Workload, name)
			failed++
		}
		rep.Metrics = perLayer(plain, tres)
		fmt.Fprintln(w, "per-layer spans (traced run):")
		printLayerTable(w, tres.Spans)
		path := filepath.Join(cfg.Work, fmt.Sprintf("trace-%s-%d.json", cfg.Workload, cfg.Seed))
		if err := writeChromeTrace(path, tres.Spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	rep.Attempted, rep.Failed = att, failed
	rep.Correct = failed == 0
	return rep, nil
}

func main() {
	cfg := config{Corrupt: -1}
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: mesh-pipeline, mesh-adapt, daemon-churn or stream-ingest")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.Seconds, "seconds", 20, "nominal run length; sets the fixed op count")
	flag.IntVar(&traceFlag, "trace", 0, "1 = add a traced run and report per-layer metrics")
	flag.StringVar(&cfg.Work, "work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for generated files")
	flag.Parse()
	if cfg.Seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(cfg, traceFlag == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
