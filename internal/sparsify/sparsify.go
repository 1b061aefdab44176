// Package sparsify implements the sparsification tree of Eppstein et al. as
// described in Section 5 of the paper: a hierarchy of dynamic MSF instances
// over recursively halved vertex sets, reducing dynamic MSF on a graph with
// m edges to O(log n) updates on sparse instances of geometrically
// decreasing size. The root instance's forest is the graph's MSF.
//
// Every stored node E_{alpha,beta} keeps the MSF of its local graph, whose
// edge set is the union of its children's forests. The root and every node
// of more than smallMax local vertices own a dynamic MSF engine behind the
// one node contract Engine; a smaller node below the root keeps no engine:
// it holds its local edges in a slice and recomputes their MSF with the
// static kernel (batch.MSF) on each delta, which costs O(1) for a constant
// smallMax (Section 5 lets a node keep its forest with any structure). The
// tree stores no one-edge leaves: its lowest stored level has intervals of
// two vertices, and a node there holds the actual graph edges between its
// two intervals, which is exactly the union of the one-edge forests of the
// leaves below it. Updates enter at that level in batches and propagate
// upward along one path (batch.go): each node applies the net forest delta
// of its children — netted from its engine's event callback or taken from
// its recompute's forest difference, the concrete realization of the
// paper's REdges bookkeeping — with the batch's propagation state kept on
// the nodes themselves. Two dispatch policies (pipeline.go) decide only
// when a ready node's task starts. Sibling local graphs are disjoint, so
// a node's input, its children's net deltas concatenated in sibling
// order, does not depend on the policy or on which child finished first.
// Nodes are created lazily and destroyed when their local graph empties,
// giving the paper's O(m log n) space.
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
// changes. Only the root and the nodes of more than smallMax local
// vertices hold one; smaller nodes recompute their forest instead. Every
// node engine a parmsf forest builds is a ternary wrapper over the core
// structure (ternary.Wrapper meets the contract as it is). Machine is the
// node's private PRAM simulator (nil without one), which DepthFn and
// WorkFn read.
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
// maxEdges concurrent edges. The tree calls it only for the root and for
// nodes of more than smallMax local vertices.
type Factory func(localN, maxEdges int) Engine

// smallMax is the largest local vertex count of a node below the root that
// keeps no engine (see small).
const smallMax = 16

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

type node struct {
	key    nodeKey
	eng    Engine     // nil for a small node
	sm     small      // a small node's edges (unused with an engine)
	co     *coalescer // an engine node below the root: its visit's forest changes
	aStart int        // original id of the first vertex of interval a
	bStart int        // of interval b (== aStart when a == b)
	span   int        // interval size
	m      int        // live local edges
	task   func()     // the node's visit, bound once for Spawn

	batchState
	waiting atomic.Int32 // closure children that have not completed
}

// batchState is a node's part in the propagation of the batch whose closure
// last enlisted it (stamp); enlist resets it, keeping out's capacity, and
// run drops the input slices once the batch is done.
type batchState struct {
	stamp       uint64
	parent      *node        // nil at the root
	dels        [][2]int     // the visit's input deletions, local ids, in the tree's arena
	ins         []batch.Edge // its input insertions, local ids, in the arena
	out         []batch.Edge // its net forest delta, original ids: removals, then additions
	ndel        int          // the number of removals in out
	depth, work int64        // the visit's charge
}

// small is the state of a node that keeps no engine: its local edges, with
// Idx set to 1 on the current forest's edges and 0 on the rest, and the
// static kernel's pooled scratch. A node's local edges are distinct under
// (Key, A, B), so Idx never decides the kernel's order.
type small struct {
	items []batch.Item
	k     batch.MSF
}

// localN returns the node's local vertex count.
func (nd *node) localN() int {
	if nd.aStart == nd.bStart {
		return nd.span
	}
	return 2 * nd.span
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
	pn      int // padded to a power of two, at least 2
	levels  int // lowest stored level (intervals of two vertices)
	factory Factory
	nodes   map[nodeKey]*node
	edges   map[[2]int]int64
	// DepthFn, when set, extracts an engine's accumulated parallel depth,
	// and a small node's visit is charged the static kernel's depth on a
	// sequential machine instead; per-batch depth is then the max over
	// the batch's node visits (under the level sweep: over each level's
	// concurrently applied siblings, then over levels), plus the O(log n)
	// coordination cost (Section 5.3), accumulated in ParDepth. It is
	// called only on engine nodes.
	DepthFn  func(Engine) int64
	ParDepth int64
	// WorkFn, when set, extracts an engine's accumulated parallel work,
	// and a small node's visit is charged the kernel's work; per-batch
	// work is the sum over every touched node plus the O(log n)
	// coordination cost, accumulated in ParWork. It is called only on
	// engine nodes.
	WorkFn  func(Engine) int64
	ParWork int64
	// Exec, when set, executes one round of the level sweep's node tasks
	// (Pipeline false) — the ready siblings of one level — possibly
	// concurrently; nil runs them inline. Tasks touch disjoint node state,
	// so any executor that completes all tasks before returning preserves
	// determinism. The sweep is the reference the pipeline is tested and
	// measured against.
	Exec func(tasks int, run func(t int))
	// Pipeline selects the batch path's dispatch policy (pipeline.go):
	// start each node as soon as its last child has completed, so levels
	// overlap, instead of sweeping rounds of ready nodes level by level.
	// Both policies run the same propagation steps, and each node's input
	// is its children's net deltas concatenated in sibling order whatever
	// order they completed in, since sibling local graphs are disjoint:
	// forests, error slots and ParDepth/ParWork are identical either way.
	// parmsf runs the pipeline.
	Pipeline bool
	// Spawn, when set with Pipeline, runs one node task asynchronously
	// (parmsf installs its machine's pram.Machine.Spawn here); the task is
	// a function value bound once per node. Input assembly stays on the
	// batch goroutine. Nil runs the identical schedule inline.
	Spawn func(run func())
	// BatchNodeOps counts node applications. PerEdgeNodeOps counted those
	// of a per-edge adapter the tree no longer has: every node engine
	// applies whole deltas, so it always reads 0.
	BatchNodeOps   int64
	PerEdgeNodeOps int64
	// BulkNodeLoads counts engine node applications that went through the
	// static Load (an insert-only delta into an empty node). Atomic: node
	// applications run on worker goroutines.
	BulkNodeLoads atomic.Int64
	// Fault, when set, arms the tree's crash points (fault-injection
	// testing): sparsify/run-batch fires on the batch goroutine after the
	// edge map committed but before any node applied; sparsify/node-task
	// fires inside every node task — on a worker goroutine under a spawned
	// pipeline, where the trap/complete containment must carry the panic
	// back to the caller without stalling the batch.
	Fault *faultinject.Injector
	// OnApplied, when set, fires once per batch entry point call that
	// staged at least one edge (a single-edge operation is a one-item
	// batch), strictly past the batch's completion: every touched node has
	// applied, every REdges delta has been assembled into its parent and
	// every node task has completed — the epoch source of the
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

	// Batch scratch, reused across batches until a bulk batch drops it
	// (batch.go): the staged seeds, the pooled error slots, the batch's
	// closure and its stamp, the input arenas, the ready-node queue (grown
	// to fit the closure), the sweep's current round and its bound task,
	// and the first trapped node-task panic.
	seeds      []batch.Edge
	errs       []error
	closure    []*node
	stamp      uint64
	dbuf       [][2]int
	ibuf       []batch.Edge
	notify     chan *node
	round      []*node
	visitRound func(t int)
	trap       atomic.Pointer[trappedPanic]
}

// New builds an empty sparsification tree over n >= 2 vertices.
func New(n int, factory Factory) *Forest {
	pn := 2
	levels := 0
	for pn < n {
		pn *= 2
		levels++
	}
	f := &Forest{
		n:       n,
		pn:      pn,
		levels:  levels,
		factory: factory,
		nodes:   make(map[nodeKey]*node),
		edges:   make(map[[2]int]int64),
	}
	f.visitRound = func(t int) { f.visit(f.round[t]) }
	return f
}

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
	nd := &node{
		key:    k,
		aStart: int(k.a) * span,
		bStart: int(k.b) * span,
		span:   span,
	}
	f.nodes[k] = nd
	localN := nd.localN()
	if k.level != 0 && localN <= smallMax {
		return nd
	}
	// Local graphs hold unions of up to four child forests plus transient
	// slack during delta application.
	nd.eng = f.factory(localN, 2*localN+8)
	if k.level == 0 {
		// The root's forest deltas are the tree's own output, so the
		// external callbacks take them, in original-id space (root locals
		// are original ids).
		nd.eng.SetEvents(f.events)
		nd.eng.SetCutSides(f.cutSides)
	} else {
		nd.co = new(coalescer)
		nd.eng.SetEvents(func(lu, lv int, w int64, added bool) {
			nd.co.add(nd.global(lu), nd.global(lv), w, added)
		})
	}
	return nd
}

// applied fires the epoch hook for one fully applied update.
func (f *Forest) applied() {
	if f.OnApplied != nil {
		f.OnApplied()
	}
}

// forestEdges iterates the node's forest edges in original vertex space.
func (nd *node) forestEdges(fn func(u, v int, w int64)) {
	if nd.eng != nil {
		nd.eng.ForestEdges(func(lu, lv int, w int64) bool {
			fn(nd.global(lu), nd.global(lv), w)
			return true
		})
		return
	}
	for _, it := range nd.sm.items {
		if it.Idx == 1 {
			fn(nd.global(it.A), nd.global(it.B), it.Key)
		}
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
// m matches the size of the edge set it should hold: the union of its
// children's forests, or at the lowest stored level the live graph edges
// between its two intervals. A stored node below the root must hold an
// edge: an emptied node is destroyed, and a batch's closure materializes
// only nodes its deltas reach. A small node's slice must hold exactly m
// edges, and its forest must be their Kruskal forest in (w, u, v) order.
// O(total size); tests only.
func (f *Forest) CheckInvariant() error {
	for k, nd := range f.nodes {
		if nd.m == 0 && k.level != 0 {
			return fmt.Errorf("node %v: stored with no edges", k)
		}
		want := map[[2]int]int64{}
		if int(k.level) == f.levels {
			for x := nd.aStart; x < nd.aStart+nd.span; x++ {
				for y := nd.bStart; y < nd.bStart+nd.span; y++ {
					if w, ok := f.edges[[2]int{x, y}]; ok {
						want[[2]int{x, y}] = w
					}
				}
			}
		} else {
			cks, nc := childKeys(k)
			for _, ck := range cks[:nc] {
				if c, ok := f.nodes[ck]; ok {
					c.forestEdges(func(u, v int, w int64) { want[key(u, v)] = w })
				}
			}
		}
		if len(want) != nd.m {
			return fmt.Errorf("node %v: m=%d, want %d", k, nd.m, len(want))
		}
		if nd.eng == nil {
			if err := nd.checkSmall(); err != nil {
				return fmt.Errorf("node %v: %v", k, err)
			}
		}
	}
	return nil
}

// checkSmall verifies a small node's slice against its edge count and its
// forest flags against the kernel's forest of a copy.
func (nd *node) checkSmall() error {
	items := nd.sm.items
	if len(items) != nd.m {
		return fmt.Errorf("holds %d edges, m=%d", len(items), nd.m)
	}
	cp := make([]batch.Item, len(items))
	for i, it := range items {
		cp[i] = batch.Item{Key: it.Key, A: it.A, B: it.B, Idx: i}
	}
	isTree := make([]bool, len(items))
	var k batch.MSF
	k.Classify(nil, nd.localN(), cp, isTree)
	for i, it := range items {
		if isTree[i] != (it.Idx == 1) {
			return fmt.Errorf("edge (%d,%d) w=%d: forest flag %d, Kruskal says %v",
				nd.global(it.A), nd.global(it.B), it.Key, it.Idx, isTree[i])
		}
	}
	return nil
}

// childKeys lists the (up to four) children of a node key above the lowest
// stored level, in sorted sibling order, and their count.
func childKeys(k nodeKey) ([4]nodeKey, int) {
	l := k.level + 1
	a1, a2 := 2*k.a, 2*k.a+1
	b1, b2 := 2*k.b, 2*k.b+1
	if k.a == k.b {
		return [4]nodeKey{{l, a1, a1}, {l, a1, a2}, {l, a2, a2}}, 3
	}
	return [4]nodeKey{{l, a1, b1}, {l, a1, b2}, {l, a2, b1}, {l, a2, b2}}, 4
}
