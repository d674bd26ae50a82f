package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public API, on both clocks.
// Rank is the simulated rank (0 for daemon requests); host-side spans
// that wrap a whole op use rank -1. Start
// and End are host nanoseconds since the recorder was created; VStart
// and VEnd are the rank's virtual clock in iPSC/860 seconds (both 0
// for host-side spans).
type Span struct {
	ID     int
	Parent int // -1 for an op's root span
	Name   string
	Op     int
	Rank   int
	Start  int64
	End    int64
	VStart float64
	VEnd   float64
}

// WallMS is the span's host duration in milliseconds.
func (s Span) WallMS() float64 { return float64(s.End-s.Start) / 1e6 }

// VS is the span's virtual duration in seconds.
func (s Span) VS() float64 { return s.VEnd - s.VStart }

// Recorder keeps spans in memory for the traced run. A nil *Recorder
// is the untraced run: every method is a no-op that returns at once,
// so the timed code is the same on both runs.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now returns host nanoseconds since the recorder's epoch.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Add records a finished span and returns its ID (-1 when untraced).
func (r *Recorder) Add(s Span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// Time runs f as one span of the named call. clock reads the calling
// rank's virtual clock; it may be nil for calls that have none.
func (r *Recorder) Time(name string, op, rank, parent int, clock func() float64, f func()) {
	if r == nil {
		f()
		return
	}
	s := Span{Name: name, Op: op, Rank: rank, Parent: parent}
	if clock != nil {
		s.VStart = clock()
	}
	s.Start = r.Now()
	f()
	s.End = r.Now()
	if clock != nil {
		s.VEnd = clock()
	}
	r.Add(s)
}

// Spans returns a copy of the recorded spans in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SetParent re-parents every span of op that has no parent yet onto
// root. Ops whose root span is only known when the op ends (an
// adaptation epoch is closed by the next epoch's barrier) record their
// rank spans first and attach them here.
func (r *Recorder) SetParent(op, root int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if s := &r.spans[i]; s.Op == op && s.Parent < 0 && s.ID != root {
			s.Parent = root
		}
	}
}

// selfNS returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfNS(spans []Span) []int64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of the
// children's intervals clipped to it.
func covered(lo, hi int64, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name   string
	Calls  int
	WallMS float64 // total duration
	SelfMS float64 // total self time
	VS     float64 // total virtual duration
}

// layerTable aggregates spans by name.
func layerTable(spans []Span) []layerRow {
	self := selfNS(spans)
	rows := map[string]*layerRow{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Calls++
		r.WallMS += s.WallMS()
		r.SelfMS += float64(self[i]) / 1e6
		r.VS += s.VS()
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printLayerTable writes the per-layer table to w.
func printLayerTable(w io.Writer, spans []Span) {
	fmt.Fprintf(w, "%-26s %7s %12s %12s %12s\n", "span", "calls", "wall_ms", "self_ms", "virtual_s")
	for _, r := range layerTable(spans) {
		fmt.Fprintf(w, "%-26s %7d %12.3f %12.3f %12.6f\n", r.Name, r.Calls, r.WallMS, r.SelfMS, r.VS)
	}
}

// writeChromeTrace writes spans as Chrome Trace Event JSON (open in
// chrome://tracing or Perfetto): one process per op, one thread per
// rank, virtual times and the parent span in args.
func writeChromeTrace(path string, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Op, Tid: s.Rank,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "vstart_s": s.VStart, "vend_s": s.VEnd},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
