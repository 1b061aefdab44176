// Package ternary implements Frederickson's degree-reduction transformation
// (assumed in Section 1.1 of the paper): it wraps a dynamic MSF engine that
// requires maximum degree 3 and presents an unbounded-degree interface.
//
// Each original vertex v is represented by a path of "slot" gadget vertices:
// a base slot, then one slot per further incident edge. Consecutive slots
// are joined by ring edges of weight lighter than every real edge, so all
// ring edges always belong to the gadget MSF and the remaining MSF edges
// are exactly the MSF of the original graph. Each slot hosts at most one
// real edge, so gadget degrees never exceed 3 (ring prev + ring next + one
// real edge). Every slot but the base hosts an edge: an insertion hosts at
// the base when it is free and appends a slot otherwise; a deletion retires
// its slot when it ends the path and otherwise splices it out, turning the
// two ring edges around it into one. No surviving edge ever moves, and each
// update costs O(1) engine operations.
//
// The wrapper is also the sparsification tree's node engine (it meets
// sparsify.Engine), and its Load is the module's one static-load routine:
// Build and Recover's flat path and every fresh tree node take it.
package ternary

import (
	"errors"
	"fmt"
	"slices"

	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/faultinject"
	"parmsf/internal/pram"
)

// Crash points of the degree-reduction layer: both fire after the wrapper's
// slot/ring staging has mutated its bookkeeping (slots, hosted, edges map)
// and before the staged batch reaches the engine — the wrapper-vs-engine
// divergence a recovery rebuild must erase.
var (
	fpBatchInsert = faultinject.Register("ternary/batch-insert")
	fpBatchDelete = faultinject.Register("ternary/batch-delete")
)

// RingWeight is the weight of gadget ring edges. It must compare below
// every real edge weight; callers must keep real weights above it.
const RingWeight = int64(-1) << 60

// Engine is the degree-3 dynamic MSF interface being wrapped: the batch
// contract of core.MSF. Every gadget update the wrapper stages — ring
// edges, hosted real edges, slot retirements and splices — reaches the
// engine through ApplyBatch, or through BulkLoad when an empty wrapper is
// seeded. Machine is the PRAM machine the engine charges (nil without
// one).
type Engine interface {
	ApplyBatch(ops []core.BatchOp) []error
	BulkLoad(ops []core.BatchOp, tree []bool) []error
	ExportComponents(comp []int32, upto int)
	Connected(u, v int) bool
	Weight() int64
	ForestSize() int
	ForestEdges(f func(u, v int, w int64) bool)
	SetEvents(f func(u, v int, w int64, added bool))
	SetCutSides(f func(side []int32))
	Machine() *pram.Machine
}

// Common errors.
var (
	ErrExists   = errors.New("ternary: edge already present")
	ErrMissing  = errors.New("ternary: edge not present")
	ErrCapacity = errors.New("ternary: gadget capacity exhausted")
	ErrWeight   = errors.New("ternary: weight below RingWeight bound")
	ErrVertex   = errors.New("ternary: vertex out of range")
	ErrSelfLoop = errors.New("ternary: self loop")
)

// Wrapper is the unbounded-degree dynamic MSF.
type Wrapper struct {
	n      int
	eng    Engine
	slots  [][]int32           // per original vertex: slot gadget ids; [0] is base
	hosted []int32             // per gadget slot: the slot hosting the other end of its edge, or -1
	owner  []int32             // per gadget slot: its original vertex, once opened
	edges  map[[2]int][2]int32 // edge key -> its hosting slots, in key order
	free   []int32
	rings  int
	nslots int // total live slots across vertices (ring invariant)

	events      func(u, v int, w int64, added bool)
	cutSides    func(side []int32)
	lastDelReal bool    // last engine delete event was a real (non-ring) edge
	sideScratch []int32 // pooled original-vertex side buffer

	// OnApplied, when set, fires once per batch entry point call that
	// reached the engine (a single-edge operation is a one-item batch),
	// strictly after the update (including its staged slot surgeries and
	// deferred bookkeeping) has drained: the epoch source of the concurrent
	// read plane, which publishes one immutable snapshot per applied
	// update.
	OnApplied func()

	// Pooled batch scratch: the staged-slot op buffer shared by every
	// entry point and the tree flags of a load, the touched vertices of a
	// delete batch, and the error slots InsertEdges and DeleteEdges return
	// (valid until the next batch). Reused across batches, so warm batch
	// entry points allocate nothing.
	opsScratch  []core.BatchOp
	flagScratch []bool
	touchedVs   []int
	errScratch  []error

	fault *faultinject.Injector // crash points (SetFault; nil no-op)
}

// New wraps a fresh degree-3 engine for n vertices and at most maxEdges
// concurrent edges. mk receives the gadget vertex count.
func New(n, maxEdges int, mk func(gadgetN int) Engine) *Wrapper {
	cap := n + 2*maxEdges
	w := &Wrapper{
		n:      n,
		eng:    mk(cap),
		slots:  make([][]int32, n),
		hosted: make([]int32, cap),
		owner:  make([]int32, cap),
		edges:  make(map[[2]int][2]int32),
	}
	// Base slots are the original ids; extra slots come from the pool.
	for v := 0; v < n; v++ {
		w.slots[v] = []int32{int32(v)}
		w.owner[v] = int32(v)
		w.hosted[v] = -1
	}
	w.nslots = n
	for id := cap - 1; id >= n; id-- {
		w.free = append(w.free, int32(id))
		w.hosted[id] = -1
	}
	w.eng.SetEvents(w.forward)
	w.eng.SetCutSides(w.forwardSides)
	return w
}

// applied fires the epoch hook for one fully applied update.
func (w *Wrapper) applied() {
	if w.OnApplied != nil {
		w.OnApplied()
	}
}

// Gadget exposes the wrapped engine to code that decorates the layers, such
// as perfbench's timing stack.
func (w *Wrapper) Gadget() Engine { return w.eng }

// Machine returns the PRAM machine the wrapped engine charges, or nil.
func (w *Wrapper) Machine() *pram.Machine { return w.eng.Machine() }

// SetEvents installs a forest-change callback in original-vertex space.
func (w *Wrapper) SetEvents(f func(u, v int, w int64, added bool)) { w.events = f }

// SetFault installs the crash-point injector (fault-injection testing; nil
// keeps every point a no-op).
func (w *Wrapper) SetFault(in *faultinject.Injector) { w.fault = in }

// SetCutSides installs a cut-side callback in original-vertex space: for
// every real (non-ring) forest-edge removal it receives the original
// vertices of the smaller side the cut left, directly after the matching
// events(added=false) call. The slice is pooled and only valid for the
// call.
func (w *Wrapper) SetCutSides(f func(side []int32)) { w.cutSides = f }

// forward translates engine events to original-vertex space, dropping ring
// edges. Whether the last delete event named a real edge is recorded
// before the drop, so forwardSides can discard the cut sides of ring-edge
// surgeries (whose tours re-link within the same engine operation — the
// original-graph partition never observes them).
func (w *Wrapper) forward(gu, gv int, wt int64, added bool) {
	if !added {
		w.lastDelReal = wt != RingWeight
	}
	if w.events == nil || wt == RingWeight {
		return
	}
	w.events(int(w.owner[gu]), int(w.owner[gv]), wt, added)
}

// forwardSides translates the engine's cut side to original-vertex space:
// every original vertex's slots are ring-connected, so all of them land on
// one side of a real-edge cut, and keeping just the base slots (gadget id
// == original id < n) projects the gadget side onto the original vertices.
func (w *Wrapper) forwardSides(side []int32) {
	if w.cutSides == nil || !w.lastDelReal {
		return
	}
	out := w.sideScratch[:0]
	for _, g := range side {
		if int(g) < w.n {
			out = append(out, g)
		}
	}
	w.sideScratch = out
	w.cutSides(out)
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// InsertEdge adds edge (u, v) of weight wt (must be > RingWeight): a
// one-item InsertEdges.
func (w *Wrapper) InsertEdge(u, v int, wt int64) error {
	return w.InsertEdges([]BatchEdge{{U: u, V: v, W: wt}})[0]
}

// check reports the error an insertion of (u, v, wt) fails with whatever
// the wrapper's state: ErrVertex, ErrSelfLoop or ErrWeight.
func (w *Wrapper) check(u, v int, wt int64) error {
	switch {
	case u < 0 || u >= w.n || v < 0 || v >= w.n:
		return ErrVertex
	case u == v:
		return ErrSelfLoop
	case wt <= RingWeight:
		return ErrWeight
	}
	return nil
}

// stageInsert validates one insertion, claims its gadget slots and records
// the wrapper bookkeeping. Any ring edge a new slot needs is staged into
// *rings, so a whole batch of slot surgeries — independent isolated-vertex
// links — goes through one gadget-level engine batch; the hosted real edge
// between the returned hosting slots, in key order, is left for the caller
// to stage after them.
func (w *Wrapper) stageInsert(u, v int, wt int64, rings *[]core.BatchOp) ([2]int32, error) {
	if err := w.check(u, v, wt); err != nil {
		return [2]int32{}, err
	}
	k := key(u, v)
	if _, dup := w.edges[k]; dup {
		return [2]int32{}, ErrExists
	}
	if len(w.free) < 2 {
		return [2]int32{}, ErrCapacity
	}
	// The >= 2 pre-check above guarantees both openSlot calls succeed: each
	// consumes at most one pool slot.
	su := w.openSlot(u, rings)
	sv := w.openSlot(v, rings)
	w.hosted[su], w.hosted[sv] = sv, su
	hs := [2]int32{su, sv}
	if k[0] == v {
		hs = [2]int32{sv, su}
	}
	w.edges[k] = hs
	return hs, nil
}

// openSlot returns a slot of x able to host a new edge: the base when it is
// free, else a new slot appended with its ring edge, which is staged into
// *rings for a later engine batch. The caller (stageInsert) guarantees a
// free pool slot.
func (w *Wrapper) openSlot(x int, rings *[]core.BatchOp) int32 {
	s := w.slots[x]
	if w.hosted[s[0]] < 0 {
		return s[0]
	}
	if len(w.free) == 0 {
		panic("ternary: openSlot without a free pool slot")
	}
	g := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	*rings = append(*rings, core.BatchOp{U: int(s[len(s)-1]), V: int(g), W: RingWeight})
	w.rings++
	w.nslots++
	w.slots[x] = append(s, g)
	w.owner[g] = int32(x)
	return g
}

// DeleteEdge removes edge (u, v): a one-key DeleteEdges.
func (w *Wrapper) DeleteEdge(u, v int) error {
	return w.DeleteEdges([][2]int{{u, v}})[0]
}

// Connected reports whether u and v are connected in the original graph.
func (w *Wrapper) Connected(u, v int) bool {
	return w.eng.Connected(u, v) // base slots carry the original ids
}

// Weight returns the MSF weight of the original graph.
func (w *Wrapper) Weight() int64 {
	return w.eng.Weight() - int64(w.rings)*RingWeight
}

// ForestSize returns the number of original MSF edges.
func (w *Wrapper) ForestSize() int { return w.eng.ForestSize() - w.rings }

// ForestEdges calls f for every original MSF edge.
func (w *Wrapper) ForestEdges(f func(u, v int, wt int64) bool) {
	w.eng.ForestEdges(func(gu, gv int, wt int64) bool {
		if wt == RingWeight {
			return true
		}
		return f(int(w.owner[gu]), int(w.owner[gv]), wt)
	})
}

// M returns the number of live original edges.
func (w *Wrapper) M() int { return len(w.edges) }

// ExportComponents fills comp[v] with a dense component id for every
// original vertex v in [0, upto), delegating to the wrapped engine's
// snapshot-export sweep (base slots carry the original vertex ids, and the
// ring paths keep every extra slot in its vertex's component, so the
// gadget partition restricted to the base slots is exactly the original
// partition). It always reports true; the result is part of the export
// signature of the sparsification tree's node contract (sparsify.Engine),
// whose test doubles need not export.
func (w *Wrapper) ExportComponents(comp []int32, upto int) bool {
	w.eng.ExportComponents(comp, upto)
	return true
}

// BatchEdge is one item of a batch insertion through InsertEdges — an alias
// of the shared batch.Edge type, so the wrapper meets the sparsification
// tree's node contract (sparsify.Engine) as it is.
type BatchEdge = batch.Edge

// InsertEdges inserts a batch of edges in order, returning one error slot
// per item (nil on success, else ErrVertex, ErrSelfLoop, ErrWeight,
// ErrExists or ErrCapacity). Slot allocation and ring maintenance are
// sequential wrapper bookkeeping, but the ring-edge slot surgeries —
// independent isolated-vertex links — are staged and applied inside the
// same single engine batch as the hosted real edges (each ring precedes
// the real edge whose slot it opened), so the engine sees one ApplyBatch
// with one deferred aggregate flush instead of one engine insert per slot.
// With distinct real weights the resulting forest is identical to per-edge
// insertion (the MSF is unique; ring edges are forced into every gadget
// MSF). The returned slots are pooled wrapper scratch, valid until the next
// batch enters this wrapper; callers that keep them must copy them.
func (w *Wrapper) InsertEdges(items []BatchEdge) []error {
	errs := w.errSlots(len(items))
	ops := w.opsScratch[:0]
	for i, it := range items {
		hs, err := w.stageInsert(it.U, it.V, it.W, &ops)
		if err != nil {
			errs[i] = err
			continue
		}
		ops = append(ops, core.BatchOp{U: int(hs[0]), V: int(hs[1]), W: it.W})
	}
	if len(ops) > 0 {
		w.fault.Hit(fpBatchInsert)
		w.apply(ops)
	}
	applied := len(ops) > 0
	w.opsScratch = ops[:0]
	w.assertRings()
	if applied {
		w.applied()
	}
	return errs
}

// errSlots returns n cleared error slots from the pooled scratch.
func (w *Wrapper) errSlots(n int) []error {
	w.errScratch = slices.Grow(w.errScratch[:0], n)[:n]
	clear(w.errScratch)
	return w.errScratch
}

// apply hands a staged gadget batch to the engine as one ApplyBatch.
func (w *Wrapper) apply(ops []core.BatchOp) {
	for _, err := range w.eng.ApplyBatch(ops) {
		if err != nil {
			panic(fmt.Sprintf("ternary: gadget batch failed: %v", err))
		}
	}
}

// assertRings checks the O(1) ring-edge invariants after a batch: every
// non-base slot carries exactly one ring edge (rings == live slots − n),
// and — since ring paths are cycle-free and lighter than every real edge,
// forcing all of them into the gadget MSF — the original-graph forest size
// implied by the engine stays within [0, n−1].
func (w *Wrapper) assertRings() {
	if w.rings != w.nslots-w.n {
		panic(fmt.Sprintf("ternary: ring invariant: %d rings, %d slots, n=%d", w.rings, w.nslots, w.n))
	}
	if fs := w.eng.ForestSize() - w.rings; fs < 0 || fs > w.n-1 {
		panic(fmt.Sprintf("ternary: ring invariant: implied forest size %d outside [0, %d]", fs, w.n-1))
	}
}

// DeleteEdges deletes a batch of edges named by endpoint pairs, returning
// one error slot per item (nil on success, ErrMissing for absent edges and
// for repeated keys after their first occurrence). The hosted real edges
// and the slot-path repairs they leave go to the engine as one batch:
// every deleted hosting is cleared first, then each touched vertex's path
// retires its trailing unhosted slots (a ring deletion each) and splices
// out every other unhosted slot but the base (a core splice each). The
// engine's planner orders the deletions before the splices, which need
// their slots at degree 2. The ring-count invariant is asserted after the
// batch. The returned slots are pooled as InsertEdges' are.
func (w *Wrapper) DeleteEdges(keys [][2]int) []error {
	errs := w.errSlots(len(keys))
	ops := w.opsScratch[:0]
	vs := w.touchedVs[:0]
	for i, kk := range keys {
		k := key(kk[0], kk[1])
		hs, ok := w.edges[k]
		if !ok {
			errs[i] = ErrMissing
			continue
		}
		delete(w.edges, k)
		ops = append(ops, core.BatchOp{Del: true, U: int(hs[0]), V: int(hs[1])})
		w.hosted[hs[0]], w.hosted[hs[1]] = -1, -1
		vs = append(vs, k[0], k[1])
	}
	if len(ops) > 0 {
		for _, x := range vs {
			ops = w.closeHoles(x, ops)
		}
		w.fault.Hit(fpBatchDelete)
		w.apply(ops)
		w.assertRings()
		w.applied()
	}
	w.opsScratch, w.touchedVs = ops[:0], vs[:0]
	return errs
}

// closeHoles stages the repair of x's slot path after unhostings: trailing
// unhosted slots are retired by deleting their ring edge, and every other
// unhosted slot but the base is spliced out of the path between its
// surviving predecessor and its successor. A splice may name the ring edge
// an earlier splice of the same path creates, which the engine's in-order
// splice stage provides. Freed slots go back to the pool; they keep their
// owner, which the batch's forest-change events still read. A path with
// nothing to repair — as on a vertex's second visit — stages nothing.
func (w *Wrapper) closeHoles(x int, ops []core.BatchOp) []core.BatchOp {
	s := w.slots[x]
	last := len(s) - 1
	for ; last > 0 && w.hosted[s[last]] < 0; last-- {
		ops = append(ops, core.BatchOp{Del: true, U: int(s[last-1]), V: int(s[last])})
		w.free = append(w.free, s[last])
	}
	j := 1
	for i := 1; i <= last; i++ {
		if w.hosted[s[i]] >= 0 {
			s[j] = s[i]
			j++
			continue
		}
		ops = append(ops, core.BatchOp{Splice: true, U: int(s[j-1]), V: int(s[i+1]), H: s[i], W: RingWeight})
		w.free = append(w.free, s[i])
	}
	w.rings -= len(s) - j
	w.nslots -= len(s) - j
	w.slots[x] = s[:j]
	return ops
}

// CheckGadget verifies wrapper bookkeeping (tests): every slot but the base
// hosts an edge, so a vertex holds one slot per hosted edge plus its base
// when that is unhosted, every edge's hosting is mutual and named by its
// map entry, and pool slots host nothing.
func (w *Wrapper) CheckGadget() error {
	deg := make([]int, w.n)
	for k := range w.edges {
		deg[k[0]]++
		deg[k[1]]++
	}
	for _, g := range w.free {
		if w.hosted[g] >= 0 {
			return fmt.Errorf("pool slot %d hosts an edge", g)
		}
	}
	for v := 0; v < w.n; v++ {
		s := w.slots[v]
		hosted := 0
		for i, g := range s {
			if int(w.owner[g]) != v {
				return fmt.Errorf("vertex %d: slot %d has owner %d", v, g, w.owner[g])
			}
			p := w.hosted[g]
			if p < 0 {
				if i != 0 {
					return fmt.Errorf("vertex %d: unhosted slot %d is not the base", v, i)
				}
				continue
			}
			if w.hosted[p] != g {
				return fmt.Errorf("vertex %d: slot %d hosts toward slot %d, which does not host back", v, i, p)
			}
			x := int(w.owner[p])
			want := [2]int32{g, p}
			if x < v {
				want = [2]int32{p, g}
			}
			if hs, ok := w.edges[key(v, x)]; !ok || hs != want {
				return fmt.Errorf("vertex %d: slot %d hosts edge (%d,%d), whose map entry does not name slots %v", v, i, v, x, want)
			}
			hosted++
		}
		if hosted != deg[v] {
			return fmt.Errorf("vertex %d: hosts %d edges, want %d", v, hosted, deg[v])
		}
		if w.hosted[s[0]] < 0 && len(s) != deg[v]+1 {
			return fmt.Errorf("vertex %d: %d slots for %d edges and an unhosted base", v, len(s), deg[v])
		}
	}
	return nil
}
