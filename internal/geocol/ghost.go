package geocol

import (
	"sort"

	"chaos/internal/machine"
)

// GhostExchange precomputes the boundary-exchange pattern of a
// block-distributed Graph: which of this rank's home vertices each
// neighboring rank reads (their ghosts of ours) and which off-rank
// vertices this rank reads (our ghosts). Because the CSR is symmetric —
// every undirected edge is stored by both endpoint owners — rank A
// needs a value for vertex u of rank B exactly when B needs to send it,
// so the pattern can be derived locally with no negotiation round. The
// Push methods then move one value per boundary vertex; distributed
// partitioners call them once per matching round or refinement sweep.
//
// The pattern is held entirely in flat index arrays — no maps. Loc
// localizes every CSR adjacency slot once at construction, so the hot
// loops of the distributed partitioners (matching rounds, FM sweeps,
// coarse assembly) resolve a neighbor's home-or-ghost location with a
// single array read instead of an ownership test plus a map lookup,
// and the incremental exchanges address ghost slots by position in the
// sender's send list, which the receiver converts to a slot with one
// addition (recvStart).
type GhostExchange struct {
	// IDs holds the sorted global ids of this rank's ghost (off-rank
	// neighbor) vertices; Push results are parallel to it.
	IDs []int
	// Loc localizes the owning graph's CSR: for adjacency slot k,
	// Loc[k] >= 0 is the home-local index of Adj[k] when this rank owns
	// it, and Loc[k] < 0 encodes ghost slot -(Loc[k]+1) otherwise.
	// Indexed exactly like g.Adj; hot loops read it instead of calling
	// Home.Owner and Slot per edge.
	Loc []int
	lo  int
	// send[p] lists the home-local vertices rank p reads, ascending.
	// By CSR symmetry this is exactly the run of rank p's ghost ids
	// owned by this rank, in the same (ascending) order — which is what
	// lets the incremental exchanges ship send-list positions instead
	// of global ids.
	send [][]int
	// recvStart[p] is the offset in IDs where rank p's vertices begin
	// (IDs is sorted and the home distribution is BLOCK, so each rank's
	// ghosts form one contiguous run).
	recvStart []int
	// sendInts/sendFloats are fixed-size per-rank send buffers sized to
	// the send lists, and updOut is the variable-length send scratch of
	// the incremental exchanges. All are reused across Push calls, which
	// run once per matching round or refinement sweep: AlltoAll copies
	// payloads before delivery, so handing the same backing arrays to
	// every exchange is safe and keeps the per-sweep allocation count
	// flat (see //chaos:hotpath).
	sendInts   [][]int
	sendFloats [][]float64
	updOut     [][]int
}

// Bytes reports the approximate heap footprint of the exchange
// pattern's retained index arrays and send buffers, in bytes; the
// service cache accounts retained ladders (which hold one exchange per
// level) against its memory cap with it.
func (ge *GhostExchange) Bytes() int {
	if ge == nil {
		return 0
	}
	b := 8 * (len(ge.IDs) + len(ge.Loc) + len(ge.recvStart))
	for _, s := range ge.send {
		b += 8 * len(s)
	}
	for _, s := range ge.sendInts {
		b += 8 * len(s)
	}
	for _, s := range ge.sendFloats {
		b += 8 * len(s)
	}
	for _, s := range ge.updOut {
		b += 8 * len(s)
	}
	return b
}

// NewGhostExchange derives the exchange pattern of g; purely local.
//
// The construction is linear in the rank's adjacency plus the id span
// it references on each owner, with no comparison sort and no binary
// search. One pass over the CSR resolves every home slot of Loc, builds
// the send lists, and counts the remote slots per owner rank, tagging
// each with its owner. A counting pass then buckets the remote slots by
// owner. For each owner in rank order, the referenced ids are marked in
// a dense window over that owner's block; scanning the marked span
// yields the owner's run of IDs sorted and deduplicated, and leaves
// each id's ghost slot in the window for the Loc fill. BLOCK ownership
// makes the per-owner runs concatenate into the globally sorted IDs,
// with recvStart at the run boundaries.
func NewGhostExchange(c *machine.Ctx, g *Graph) *GhostExchange {
	me, procs := c.Rank(), c.Procs()
	lo, localN := g.Home.Lo(me), g.LocalN(me)
	ge := &GhostExchange{
		lo:        lo,
		send:      make([][]int, procs),
		Loc:       make([]int, len(g.Adj)),
		recvStart: make([]int, procs+1),
	}
	// Pass 1: home slots get their home index; remote slots are tagged
	// -(owner+1) until the window pass below overwrites them, and
	// counted into their owner's bucket.
	end := make([]int, procs)
	for l := 0; l < localN; l++ {
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			v := g.Adj[k]
			if h := v - lo; h >= 0 && h < localN {
				ge.Loc[k] = h
				continue
			}
			r := g.Home.Owner(v)
			ge.Loc[k] = -(r + 1)
			end[r]++
			// l's ascend in the outer loop, so adjacent-duplicate
			// suppression dedups each rank's send list.
			if s := ge.send[r]; len(s) == 0 || s[len(s)-1] != l {
				ge.send[r] = append(ge.send[r], l)
			}
		}
	}
	// Counting pass: bucket the remote slots by owner, ascending slot
	// order within each bucket. After the fill end[r] is one past the
	// end of bucket r, so bucket r spans [end[r-1], end[r]).
	nRemote := 0
	for r, n := range end {
		end[r] = nRemote
		nRemote += n
	}
	slots := make([]int, nRemote)
	for k, loc := range ge.Loc {
		if loc < 0 {
			r := -loc - 1
			slots[end[r]] = k
			end[r]++
		}
	}
	// Window pass, one owner at a time. A window entry is 0 when
	// unreferenced, 1 once marked, and the encoded Loc value -(slot+1)
	// after the scan; each owner's entries are zeroed again before the
	// next owner reuses the window.
	var window []int
	if nRemote > 0 {
		window = make([]int, g.Home.LocalSize(0)) // BLOCK: rank 0's block is the largest
	}
	b := 0
	for r := 0; r < procs; r++ {
		ge.recvStart[r] = len(ge.IDs)
		bucket := slots[b:end[r]]
		b = end[r]
		if len(bucket) == 0 {
			continue
		}
		base := g.Home.Lo(r)
		first, last := len(window), -1
		for _, k := range bucket {
			i := g.Adj[k] - base
			window[i] = 1
			first, last = min(first, i), max(last, i)
		}
		for i := first; i <= last; i++ {
			if window[i] != 0 {
				window[i] = -(len(ge.IDs) + 1)
				ge.IDs = append(ge.IDs, base+i)
			}
		}
		for _, k := range bucket {
			ge.Loc[k] = window[g.Adj[k]-base]
		}
		for _, v := range ge.IDs[ge.recvStart[r]:] {
			window[v-base] = 0
		}
	}
	ge.recvStart[procs] = len(ge.IDs)
	c.Words(localN + 2*len(ge.IDs))
	ge.sendInts = make([][]int, procs)
	ge.sendFloats = make([][]float64, procs)
	ge.updOut = make([][]int, procs)
	for r, ls := range ge.send {
		if len(ls) > 0 {
			ge.sendInts[r] = make([]int, len(ls))
			ge.sendFloats[r] = make([]float64, len(ls))
		}
	}
	return ge
}

// Slot returns the index in IDs of ghost vertex v (which must be a
// ghost of this rank). Hot loops should prefer Loc, which resolves the
// slot of an adjacency position with one array read; Slot binary-
// searches the sorted id list.
func (ge *GhostExchange) Slot(v int) int { return sort.SearchInts(ge.IDs, v) }

// PushInts exchanges one int per boundary vertex: vals is indexed by
// home-local vertex, and the result is parallel to IDs. Collective.
func (ge *GhostExchange) PushInts(c *machine.Ctx, vals []int) []int {
	return ge.PushIntsInto(c, vals, nil)
}

// PushIntsInto is PushInts delivering into dst when it has the
// capacity, allocating a fresh slice only when it does not. Loops that
// push once per sweep or per ladder level — coarsening, V-cycle
// construction, FM refinement — hand back the previous push's slice to
// keep the per-sweep allocation count flat. dst's prior contents are
// ignored. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) PushIntsInto(c *machine.Ctx, vals []int, dst []int) []int {
	for r, ls := range ge.send {
		buf := ge.sendInts[r]
		for i, l := range ls {
			buf[i] = vals[l]
		}
	}
	in := c.AlltoAllInts(ge.sendInts)
	var res []int
	if cap(dst) >= len(ge.IDs) {
		res = dst[:len(ge.IDs)]
	} else {
		//chaosvet:ignore hotalloc grows only when the caller's buffer is short; steady-state sweeps reuse it
		res = make([]int, len(ge.IDs))
	}
	for r, xs := range in {
		copy(res[ge.recvStart[r]:ge.recvStart[r+1]], xs)
	}
	return res
}

// UpdateInts is the incremental form of PushInts: only home vertices
// with changed[l] set are exchanged (as explicit (position, value)
// pairs), and the receiver applies them in place to its ghost copy from
// an earlier PushInts. When few values change per round — refinement
// sweeps move a few percent of the boundary — this replaces a dense
// boundary exchange with a near-empty one, which matters because the
// dense exchange's byte volume is what keeps distributed coarsening
// from scaling on heavily interleaved vertex distributions. Collective.
func (ge *GhostExchange) UpdateInts(c *machine.Ctx, vals []int, changed []bool, ghost []int) {
	//chaosvet:ignore exchangeerr UpdateInts is the sanctioned no-touched-list wrapper; the payload lands in ghost, only the slot list is dropped
	ge.UpdateIntsTouchedInto(c, vals, changed, ghost, nil)
}

// UpdateIntsTouched is UpdateInts returning the ghost slots whose value
// actually changed, in ascending slot order (nil when nothing changed).
// Receivers that maintain incremental state keyed on ghost values — the
// parallel FM refiner keeps per-vertex gain and boundary caches that
// are only invalidated by a neighbor's part changing — use the touched
// list to reprocess exactly the affected vertices instead of rescanning
// the whole ghost layer every round. Collective.
func (ge *GhostExchange) UpdateIntsTouched(c *machine.Ctx, vals []int, changed []bool, ghost []int) []int {
	return ge.UpdateIntsTouchedInto(c, vals, changed, ghost, nil)
}

// UpdateIntsTouchedInto is UpdateIntsTouched accumulating the touched
// list into dst (overwritten, reused when its capacity suffices), so a
// steady-state refinement sweep allocates nothing for the exchange.
// The wire format is positional: each sender ships (index within its
// send list, value), and the receiver converts the index to a ghost
// slot with one addition — sender r's send list is exactly this rank's
// run of ghost ids owned by r, in the same ascending order. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) UpdateIntsTouchedInto(c *machine.Ctx, vals []int, changed []bool, ghost []int, dst []int) []int {
	out := ge.resetUpdOut()
	for r, ls := range ge.send {
		for i, l := range ls {
			if changed[l] {
				out[r] = append(out[r], i, vals[l])
			}
		}
	}
	in := c.AlltoAllInts(out)
	// Senders are visited in rank order and each rank's positions
	// arrive ascending, so slots (contiguous per rank, ascending
	// within) come out sorted without an explicit sort.
	touched := dst[:0]
	for r, xs := range in {
		base := ge.recvStart[r]
		for i := 0; i+1 < len(xs); i += 2 {
			s := base + xs[i]
			if ghost[s] != xs[i+1] {
				ghost[s] = xs[i+1]
				//chaosvet:ignore hotalloc touched reuses dst and its growth is bounded by the ghost-layer size; steady-state sweeps reach fixed capacity
				touched = append(touched, s)
			}
		}
	}
	if len(touched) == 0 {
		return nil
	}
	return touched
}

// resetUpdOut empties the incremental-exchange send scratch keeping its
// per-rank backing arrays.
func (ge *GhostExchange) resetUpdOut() [][]int {
	for r := range ge.updOut {
		ge.updOut[r] = ge.updOut[r][:0]
	}
	return ge.updOut
}

// PushMarks is the one-bit form of UpdateInts for monotone flags (a
// matched vertex never unmatches): only the send-list positions of
// newly marked home vertices travel, and the receiver sets the
// corresponding ghost flags to 1. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) PushMarks(c *machine.Ctx, changed []bool, ghost []int) {
	out := ge.resetUpdOut()
	for r, ls := range ge.send {
		for i, l := range ls {
			if changed[l] {
				out[r] = append(out[r], i)
			}
		}
	}
	in := c.AlltoAllInts(out)
	for r, xs := range in {
		base := ge.recvStart[r]
		for _, i := range xs {
			ghost[base+i] = 1
		}
	}
}

// PushFloats is PushInts for float64 values.
func (ge *GhostExchange) PushFloats(c *machine.Ctx, vals []float64) []float64 {
	return ge.PushFloatsInto(c, vals, nil)
}

// PushFloatsInto is PushFloats delivering into dst when it has the
// capacity (the float twin of PushIntsInto); dst's prior contents are
// ignored. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) PushFloatsInto(c *machine.Ctx, vals []float64, dst []float64) []float64 {
	for r, ls := range ge.send {
		buf := ge.sendFloats[r]
		for i, l := range ls {
			buf[i] = vals[l]
		}
	}
	in := c.AlltoAllFloats(ge.sendFloats)
	var res []float64
	if cap(dst) >= len(ge.IDs) {
		res = dst[:len(ge.IDs)]
	} else {
		//chaosvet:ignore hotalloc grows only when the caller's buffer is short; steady-state sweeps reuse it
		res = make([]float64, len(ge.IDs))
	}
	for r, xs := range in {
		copy(res[ge.recvStart[r]:ge.recvStart[r+1]], xs)
	}
	return res
}
