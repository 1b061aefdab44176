// Package sparsify implements the sparsification tree of Eppstein et al. as
// described in Section 5 of the paper: a hierarchy of dynamic MSF instances
// over recursively halved vertex sets, reducing dynamic MSF on a graph with
// m edges to O(log n) updates on sparse instances of geometrically
// decreasing size. The root instance's forest is the graph's MSF.
//
// Every stored node E_{alpha,beta} owns a dynamic MSF engine, behind the one
// node contract Engine, on the local graph whose edge set is the union of
// its children's forests (at leaves: the actual graph edges between the two
// singleton vertex sets). Updates enter at a leaf and propagate upward: each
// level applies the forest delta of the level below, reported through the
// engine's event callback — the concrete realization of the paper's REdges
// bookkeeping. Nodes are created lazily and destroyed when their local
// graph empties, giving the paper's O(m log n) space.
package sparsify

import (
	"errors"
	"fmt"
	"sync/atomic"

	"parmsf/internal/batch"
	"parmsf/internal/faultinject"
	"parmsf/internal/pram"
)

// Engine is the node contract: a dynamic MSF over a node's local vertex
// ids, with the batch entry points the tree applies deltas through, the
// static Load an empty node takes its first delta through, the queries the
// tree answers from the root, and the callbacks that report forest
// changes. Every node engine a parmsf forest builds is a ternary wrapper
// over the core structure (ternary.Wrapper meets the contract as it is).
// Machine is the node's private PRAM simulator (nil without one), which
// DepthFn and WorkFn read.
type Engine interface {
	InsertEdges(items []batch.Edge) []error
	DeleteEdges(keys [][2]int) []error
	Load(items []batch.Edge, m *pram.Machine) []error
	Connected(u, v int) bool
	Weight() int64
	ForestSize() int
	ForestEdges(f func(u, v int, w int64) bool)
	ExportComponents(comp []int32, upto int) bool
	SetEvents(f func(u, v int, w int64, added bool))
	SetCutSides(f func(side []int32))
	Machine() *pram.Machine
}

// Factory builds a node engine over localN vertices holding at most
// maxEdges concurrent edges.
type Factory func(localN, maxEdges int) Engine

// Common errors.
var (
	ErrExists  = errors.New("sparsify: edge already present")
	ErrMissing = errors.New("sparsify: edge not present")
	ErrBadEdge = errors.New("sparsify: invalid edge")
)

type nodeKey struct {
	level int32
	a, b  int32 // interval indices at level, a <= b
}

type event struct {
	u, v  int // original vertex ids
	w     int64
	added bool
}

type node struct {
	key     nodeKey
	eng     Engine
	aStart  int // original id of the first vertex of interval a
	bStart  int // of interval b (== aStart when a == b)
	span    int // interval size
	m       int // live local edges
	pending []event
}

// local maps an original vertex id into the node's engine id space:
// interval a occupies [0, span), interval b occupies [span, 2*span) (when
// distinct).
func (nd *node) local(x int) int {
	if x >= nd.aStart && x < nd.aStart+nd.span {
		return x - nd.aStart
	}
	return nd.span + (x - nd.bStart)
}

// global is the inverse of local.
func (nd *node) global(l int) int {
	if l < nd.span {
		return nd.aStart + l
	}
	return nd.bStart + (l - nd.span)
}

// Forest is the sparsification tree.
type Forest struct {
	n       int // original vertex count
	pn      int // padded to a power of two
	levels  int // leaf level (intervals of size 1)
	factory Factory
	nodes   map[nodeKey]*node
	edges   map[[2]int]int64
	// DepthFn, when set, extracts an engine's accumulated parallel depth;
	// per-batch depth is then the max over the concurrently applied
	// siblings of a level, then the max over levels, plus the O(log n)
	// coordination cost (Section 5.3), accumulated in ParDepth.
	DepthFn  func(Engine) int64
	ParDepth int64
	// WorkFn, when set, extracts an engine's accumulated parallel work;
	// per-batch work is the sum over every touched node plus the O(log n)
	// coordination cost, accumulated in ParWork.
	WorkFn  func(Engine) int64
	ParWork int64
	// Exec, when set, executes tasks independent node applications of the
	// batch path — the touched siblings of one level — possibly
	// concurrently. Nil runs them inline. Tasks touch disjoint node state,
	// so any executor that completes all tasks before returning preserves
	// determinism. Exec is only consulted by the level-barrier sweep
	// (Pipeline false), the reference the pipeline is tested and measured
	// against.
	Exec func(tasks int, run func(t int))
	// Pipeline routes batches through the dependency-driven scheduler
	// (pipeline.go), the one parmsf runs, instead of the strict
	// level-barrier sweep: a node applies as soon as its own children have
	// drained into it, so levels overlap. Forests, error slots and
	// ParDepth/ParWork are identical either way.
	Pipeline bool
	// Spawn, when set with Pipeline, runs one node application
	// asynchronously (the composer injects a bounded-goroutine spawner
	// here). finish-side bookkeeping stays on the scheduler goroutine. Nil
	// executes the identical schedule inline.
	Spawn func(run func())
	// BatchNodeOps counts node applications. PerEdgeNodeOps counted those
	// of a per-edge adapter the tree no longer has: every node engine
	// applies whole deltas, so it always reads 0.
	BatchNodeOps   int64
	PerEdgeNodeOps int64
	// BulkNodeLoads counts node applications that went through the static
	// Load (an insert-only delta into an empty node). Atomic: node
	// applications run on worker goroutines.
	BulkNodeLoads atomic.Int64
	// Fault, when set, arms the tree's crash points (fault-injection
	// testing): sparsify/run-batch fires on the batch goroutine after the
	// edge map committed but before any node applied; sparsify/node-task
	// fires inside a node application — on a worker goroutine under the
	// pipeline scheduler, where the trap/complete containment must carry
	// the panic back to the caller without deadlocking the schedule.
	Fault *faultinject.Injector
	// OnApplied, when set, fires once per batch entry point call that
	// staged at least one edge (a single-edge operation is a one-item
	// batch), strictly past the batch's pipeline (or level-barrier)
	// completion: every touched node has applied, every REdges delta has
	// drained and every task goroutine has joined — the epoch source of the
	// concurrent read plane, which publishes one immutable snapshot per
	// applied update batch and must never observe the tree
	// mid-propagation.
	OnApplied func()
	// events is the externally installed forest-change callback (original
	// vertex space). It rides the root node's engine — the root forest is
	// the graph's MSF — and persists across root destruction/recreation.
	// During batch application it may fire on a worker goroutine (the
	// goroutine applying the root node's delta), always strictly before
	// the batch entry point returns.
	events func(u, v int, w int64, added bool)

	// cutSides mirrors events for the root engine's cut-side reports (the
	// smaller side of each real forest cut, original-id space); like
	// events, it persists across root destruction and recreation.
	cutSides func(side []int32)
}

// New builds an empty sparsification tree over n >= 2 vertices.
func New(n int, factory Factory) *Forest {
	pn := 1
	levels := 0
	for pn < n {
		pn *= 2
		levels++
	}
	return &Forest{
		n:       n,
		pn:      pn,
		levels:  levels,
		factory: factory,
		nodes:   make(map[nodeKey]*node),
		edges:   make(map[[2]int]int64),
	}
}

// N returns the vertex count.
func (f *Forest) N() int { return f.n }

// M returns the live edge count.
func (f *Forest) M() int { return len(f.edges) }

// NodeCount returns the number of stored tree nodes (space check).
func (f *Forest) NodeCount() int { return len(f.nodes) }

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// keyAt returns the node key covering pair (u, v) at the given level.
func (f *Forest) keyAt(level, u, v int) nodeKey {
	span := f.pn >> uint(level)
	a, b := int32(u/span), int32(v/span)
	if a > b {
		a, b = b, a
	}
	return nodeKey{int32(level), a, b}
}

func (f *Forest) getOrCreateKey(k nodeKey) *node {
	if nd, ok := f.nodes[k]; ok {
		return nd
	}
	span := f.pn >> uint(k.level)
	localN := span
	if k.a != k.b {
		localN = 2 * span
	}
	nd := &node{
		key:    k,
		aStart: int(k.a) * span,
		bStart: int(k.b) * span,
		span:   span,
	}
	// Local graphs hold unions of up to four child forests plus transient
	// slack during delta application.
	nd.eng = f.factory(localN, 2*localN+8)
	if k.level == 0 && f.events != nil {
		// The root's forest deltas are the tree's own output — nothing
		// above consumes its pending events (drain discards them) — so the
		// external callback takes their place, in original-id space (root
		// locals are original ids).
		nd.eng.SetEvents(f.events)
		nd.eng.SetCutSides(f.cutSides)
	} else {
		nd.eng.SetEvents(func(lu, lv int, w int64, added bool) {
			nd.pending = append(nd.pending, event{nd.global(lu), nd.global(lv), w, added})
		})
	}
	f.nodes[k] = nd
	return nd
}

// applied fires the epoch hook for one fully applied update.
func (f *Forest) applied() {
	if f.OnApplied != nil {
		f.OnApplied()
	}
}

// drain returns and clears a node's pending forest-change events.
func (nd *node) drain() []event {
	out := nd.pending
	nd.pending = nil
	return out
}

// gc removes an emptied node.
func (f *Forest) gc(nd *node) {
	if nd.m == 0 && nd.key.level != 0 {
		delete(f.nodes, nd.key)
	}
}

// InsertEdge adds edge (u, v) with weight w: a one-item InsertEdges.
func (f *Forest) InsertEdge(u, v int, w int64) error {
	return f.InsertEdges([]batch.Edge{{U: u, V: v, W: w}})[0]
}

// DeleteEdge removes edge (u, v): a one-key DeleteEdges.
func (f *Forest) DeleteEdge(u, v int) error {
	return f.DeleteEdges([][2]int{{u, v}})[0]
}

func (f *Forest) root() *node {
	return f.nodes[nodeKey{0, 0, 0}]
}

// Connected reports connectivity via the root instance.
func (f *Forest) Connected(u, v int) bool {
	if u == v {
		return true
	}
	r := f.root()
	if r == nil {
		return false
	}
	return r.eng.Connected(u, v)
}

// Weight returns the MSF weight.
func (f *Forest) Weight() int64 {
	if r := f.root(); r != nil {
		return r.eng.Weight()
	}
	return 0
}

// ForestSize returns the number of MSF edges.
func (f *Forest) ForestSize() int {
	if r := f.root(); r != nil {
		return r.eng.ForestSize()
	}
	return 0
}

// ForestEdges iterates the MSF edges.
func (f *Forest) ForestEdges(fn func(u, v int, w int64) bool) {
	if r := f.root(); r != nil {
		r.eng.ForestEdges(fn)
	}
}

// SetEvents installs a forest-change callback in original vertex space,
// fed by the root engine (whose forest is the graph's MSF). The callback
// persists across root destruction and recreation; during batch updates it
// may fire on the worker goroutine applying the root's delta, always
// strictly before the batch entry point returns.
func (f *Forest) SetEvents(fn func(u, v int, w int64, added bool)) {
	f.events = fn
	if r := f.root(); r != nil {
		r.eng.SetEvents(fn)
	}
}

// SetCutSides installs the root engine's cut-side callback (the smaller
// side of each real forest cut, original vertex space), with the same
// persistence and goroutine contract as SetEvents.
func (f *Forest) SetCutSides(fn func(side []int32)) {
	f.cutSides = fn
	if r := f.root(); r != nil {
		r.eng.SetCutSides(fn)
	}
}

// ExportComponents fills comp[v] with a dense component id for every
// vertex v in [0, upto), per the current MSF: the root node's engine runs
// its snapshot-export sweep (root-local ids are original ids) and its
// result is returned. With no root — the graph has never held an edge —
// every vertex is its own component. Must not run concurrently with
// updates.
func (f *Forest) ExportComponents(comp []int32, upto int) bool {
	r := f.root()
	if r == nil {
		for v := 0; v < upto; v++ {
			comp[v] = int32(v)
		}
		return true
	}
	return r.eng.ExportComponents(comp, upto)
}

// CheckInvariant verifies, for every stored node, that its local edge count
// matches m and that its local graph equals the union of its children's
// forests (leaves: the live graph edges of its pair). O(total size); tests
// only.
func (f *Forest) CheckInvariant() error {
	for k, nd := range f.nodes {
		want := map[[2]int]int64{}
		if int(k.level) == f.levels {
			// Leaf: actual graph edges between the singletons.
			u, v := int(k.a), int(k.b)
			if w, ok := f.edges[key(u, v)]; ok {
				want[key(u, v)] = w
			}
		} else {
			for _, ck := range childKeys(k) {
				c, ok := f.nodes[ck]
				if !ok {
					continue
				}
				c.eng.ForestEdges(func(lu, lv int, w int64) bool {
					want[key(c.global(lu), c.global(lv))] = w
					return true
				})
			}
		}
		if len(want) != nd.m {
			return fmt.Errorf("node %v: m=%d, want %d", k, nd.m, len(want))
		}
	}
	return nil
}

// childKeys lists the (up to four) children of a non-leaf node key.
func childKeys(k nodeKey) []nodeKey {
	l := k.level + 1
	a1, a2 := 2*k.a, 2*k.a+1
	b1, b2 := 2*k.b, 2*k.b+1
	if k.a == k.b {
		return []nodeKey{{l, a1, a1}, {l, a1, a2}, {l, a2, a2}}
	}
	return []nodeKey{{l, a1, b1}, {l, a1, b2}, {l, a2, b1}, {l, a2, b2}}
}
