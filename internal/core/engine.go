package core

import (
	"errors"
	"fmt"

	"parmsf/internal/faultinject"
	"parmsf/internal/graph"
	"parmsf/internal/lct"
	"parmsf/internal/seqtree"
)

// MSF maintains a minimum spanning forest of a dynamic bounded-degree
// sparse graph (Theorem 1.2 with the sequential charger; Theorem 3.1 with a
// PRAM charger). General graphs are handled by the wrappers in
// internal/ternary and internal/sparsify.
type MSF struct {
	st   *Store
	lf   *lct.Forest
	lctE []*lct.Edge // by graph edge ID
	w    Weight
	size int

	// Events, when non-nil, is invoked whenever an edge enters (added=true)
	// or leaves (added=false) the maintained forest. The sparsification
	// tree (Section 5) uses these deltas to keep parent local graphs equal
	// to the union of child forests.
	Events func(u, v int, w Weight, added bool)

	// CutSides, when non-nil, is invoked once per forest-edge removal of a
	// deletion or cycle swap, directly after the matching
	// Events(added=false) and before any further event, with the vertex set
	// of the smaller tree the cut left (see cutsides.go). A splice, whose
	// removals only isolate its middle vertex, reports none. The slice is
	// pooled and only valid for the call.
	CutSides func(side []int32)
	cutBuf   []int32

	fault *faultinject.Injector // crash points (Config.Fault; nil no-op)
}

// ErrNotFound reports a DeleteEdge of an absent edge.
var ErrNotFound = errors.New("core: edge not in graph")

// NewMSF creates an empty forest structure over n vertices with degree
// bound 3.
func NewMSF(n int, cfg Config, ch Charger) *MSF {
	g := graph.New(n, 3)
	return &MSF{st: NewStore(g, cfg, ch), lf: lct.New(n), fault: cfg.Fault}
}

// Store exposes the underlying structure (benchmarks and tests).
func (m *MSF) Store() *Store { return m.st }

// Graph exposes the underlying graph.
func (m *MSF) Graph() *graph.G { return m.st.g }

// Weight returns the total weight of the current forest.
func (m *MSF) Weight() Weight { return m.w }

// ForestSize returns the number of forest edges.
func (m *MSF) ForestSize() int { return m.size }

// Connected reports whether u and v are in one tree (O(log n)).
func (m *MSF) Connected(u, v int) bool {
	m.st.ch.Seq(log2ceil(m.st.n + 1))
	return m.lf.Connected(u, v)
}

// ForestEdges calls f for every forest edge.
func (m *MSF) ForestEdges(f func(u, v int, w Weight) bool) {
	m.st.g.Edges(func(e *graph.Edge) bool {
		if e.Tree {
			return f(int(e.U), int(e.V), e.W)
		}
		return true
	})
}

// ErrWeight reports a weight equal to the reserved Inf sentinel.
var ErrWeight = errors.New("core: weight must be below Inf")

// InsertEdge adds edge (u, v) with weight w, updating the forest (Section
// 2.6 / 3.4 insertion): a one-element batch of the staged pipeline in
// plan.go.
func (m *MSF) InsertEdge(u, v int, w Weight) error {
	return m.applySingle(BatchOp{U: u, V: v, W: w})
}

// DeleteEdge removes edge (u, v), finding a replacement when a tree edge is
// deleted (Section 2.6 / 3.4 deletion): a one-element batch of the staged
// pipeline in plan.go.
func (m *MSF) DeleteEdge(u, v int) error {
	return m.applySingle(BatchOp{Del: true, U: u, V: v})
}

// applySingle applies op as a one-element batch held in pooled Store
// scratch, so a single update allocates no batch.
func (m *MSF) applySingle(op BatchOp) error {
	m.st.single[0] = op
	return m.ApplyBatch(m.st.single[:])[0]
}

// applyInsertPlanned applies one planned insertion whose connectivity
// answer the tour-root kernel of insertclass.go resolved for the whole
// insert stage. The CAdj entry update defers its aggregate refreshes to the
// batch flush; the structural forest update — dynamic-tree link or cycle
// swap — flushes first when it needs surgery, because surgery reads the
// Memb aggregates.
func (m *MSF) applyInsertPlanned(u, v int, w Weight, connected bool) error {
	e, err := m.st.g.Insert(u, v, w)
	if err != nil {
		return err
	}
	m.growTables()
	st := m.st

	// Record the new incidences: the principal copies' chunks are charged
	// with one more edge each, and the CAdj entry pair gets a min-update.
	pu, pv := st.pcs[u], st.pcs[v]
	st.bumpCharge(pu, +1)
	if pv != pu {
		st.bumpCharge(pv, +1)
	}
	st.noteEdgeEntryInserted(e)
	st.normalize([]*Chunk{pu.chunk, pv.chunk})

	if !connected {
		m.becomeTree(e)
		return nil
	}
	st.ch.Seq(log2ceil(st.n + 1)) // dynamic-tree path-max query
	heavy := m.lf.PathMaxEdge(u, v)
	if w < heavy.W {
		old := st.g.Find(heavy.U, heavy.V)
		if old == nil || !old.Tree {
			panic("core: path-max edge not a tree edge")
		}
		st.flushCAdj() // cycle-swap surgery reads Memb aggregates
		m.removeFromForest(old)
		m.becomeTree(e)
	}
	return nil
}

// deleteTreeEdge applies one planned tree-edge deletion: cut, surgery, and
// the parallel replacement search. The edge was classified as a live tree
// edge; the plan guarantees that remains true when it applies.
func (m *MSF) deleteTreeEdge(u, v int) {
	st := m.st
	e := st.g.Find(u, v)
	if e == nil || !e.Tree {
		panic("core: planned tree deletion is not a live tree edge")
	}
	eid := e.ID
	occA, occB := st.occU[eid], st.occV[eid]
	if _, err := st.g.Delete(u, v); err != nil {
		panic("core: tree deletion failed: " + err.Error())
	}

	pu, pv := st.pcs[u], st.pcs[v]
	st.bumpCharge(pu, -1)
	if pv != pu {
		st.bumpCharge(pv, -1)
	}
	st.recomputeEntryPair(pu.chunk, pv.chunk, e.W)

	st.ch.Seq(log2ceil(st.n + 1)) // dynamic-tree cut
	m.lf.Cut(m.lctE[eid])
	m.lctE[eid] = nil
	m.w -= e.W
	m.size--
	if m.Events != nil {
		m.Events(u, v, e.W, false)
	}

	st.flushCAdj() // surgery and MWR read the LSDS aggregates
	t1, t2, dirty := st.cutTours(e, occA, occB)
	// Re-read the principal copies: surgery may have deleted the old ones.
	dirty = append(dirty, st.pcs[u].chunk, st.pcs[v].chunk)
	st.normalize(dirty)
	st.normTourStatus(t1)
	st.normTourStatus(t2)
	m.emitCutSide(t1, t2)

	if r := st.MWR(t1, t2); r != nil {
		m.becomeTree(r)
	}
}

// splice applies one planned splice (BatchOp.Splice): the forest edges
// (a, h) and (h, b) of weight w at degree-2 vertex h become the forest
// edge (a, b) of weight w, and h is left isolated. The forest stays
// minimum, since the new edge weighs what each removed one did and every
// other vertex keeps its tree, so no replacement search or path-max query
// runs: two dynamic-tree cuts, one link, and the O(1) tour surgery of
// spliceTours, which moves no chunk boundary.
func (m *MSF) splice(op BatchOp) {
	st := m.st
	a, h, b, w := op.U, int(op.H), op.V, op.W
	e1, e2 := st.g.Find(a, h), st.g.Find(h, b)
	if a == b || e1 == nil || e2 == nil || !e1.Tree || !e2.Tree ||
		e1.W != w || e2.W != w || st.g.Degree(h) != 2 {
		panic(fmt.Sprintf("core: splice of %d between %d and %d: not a degree-2 forest vertex on two weight-%d edges", h, a, b, w))
	}
	// x precedes the a->h pair and y the b->h pair; they become the
	// anchors of a->b and b->a once h's copies leave the cyclic order.
	x, y := st.anchorAt(e1, a), st.anchorAt(e2, b)
	if x.next.v != int32(h) || x.next.next.v != int32(b) || y.next.v != int32(h) || y.next.next.v != int32(a) {
		panic("core: occurrence anchors inconsistent with splice")
	}
	pa, ph, pb := st.pcs[a].chunk, st.pcs[h].chunk, st.pcs[b].chunk

	st.ch.Seq(3 * log2ceil(st.n+1)) // two dynamic-tree cuts and one link
	for _, e := range [2]*graph.Edge{e1, e2} {
		m.lf.Cut(m.lctE[e.ID])
		m.lctE[e.ID] = nil
		st.occU[e.ID], st.occV[e.ID] = nil, nil
		if _, err := st.g.Delete(int(e.U), int(e.V)); err != nil {
			panic("core: splice deletion failed: " + err.Error())
		}
		if m.Events != nil {
			m.Events(int(e.U), int(e.V), w, false)
		}
	}
	e3, err := st.g.Insert(a, b, w)
	if err != nil {
		panic("core: splice insertion failed: " + err.Error())
	}
	m.growTables()
	e3.Tree = true
	m.lctE[e3.ID] = m.lf.Link(a, b, w)
	m.w -= w
	m.size--
	if m.Events != nil {
		m.Events(a, b, w, true)
	}

	dirty := st.spliceTours(x, y)
	st.occU[e3.ID], st.occV[e3.ID] = x, y
	// CAdj: (a, h) and (h, b) leave, (a, b) arrives, all of weight w. An
	// entry that loses a weight-w edge and gains one keeps its minimum, so
	// only entries left with no replacement are recomputed. A diagonal
	// entry is not maintained: its recompute is charged but scans nothing.
	switch {
	case pa == ph && ph == pb: // all three edges are intra-chunk
	case pa == ph: // (a, b) takes (h, b)'s place in entry (pa, pb)
		st.recomputeEntryPair(pa, pa, w)
	case pb == ph: // (a, b) takes (a, h)'s place in entry (pa, pb)
		st.recomputeEntryPair(pb, pb, w)
	default:
		st.recomputeEntryPair(pa, ph, w)
		if pb != pa {
			st.recomputeEntryPair(pb, ph, w)
		}
		st.lowerEntryPair(pa, pb, w)
	}
	// a and b keep their copies and charges; only the chunks h left need
	// repair, and normalize keeps the tour's registry status with them.
	st.normalize(dirty)
}

// becomeTree promotes graph edge e to a forest edge: dynamic-tree link plus
// tour splice.
func (m *MSF) becomeTree(e *graph.Edge) {
	st := m.st
	st.ch.Seq(log2ceil(st.n + 1))
	m.lctE[e.ID] = m.lf.Link(int(e.U), int(e.V), e.W)
	e.Tree = true
	m.w += e.W
	m.size++
	if m.Events != nil {
		m.Events(int(e.U), int(e.V), e.W, true)
	}
	dirty := st.linkTours(e)
	st.normalize(dirty)
	st.normTourStatus(st.tourOf(st.pcs[e.U].chunk))
}

// removeFromForest demotes tree edge e to a non-tree edge (the cycle-swap
// path of insertion): dynamic-tree cut plus tour split. The edge stays in
// the graph and in CAdj.
func (m *MSF) removeFromForest(e *graph.Edge) {
	st := m.st
	st.ch.Seq(log2ceil(st.n + 1))
	m.lf.Cut(m.lctE[e.ID])
	m.lctE[e.ID] = nil
	e.Tree = false
	m.w -= e.W
	m.size--
	if m.Events != nil {
		m.Events(int(e.U), int(e.V), e.W, false)
	}
	occA, occB := st.occU[e.ID], st.occV[e.ID]
	t1, t2, dirty := st.cutTours(e, occA, occB)
	st.normalize(dirty)
	st.normTourStatus(t1)
	st.normTourStatus(t2)
	m.emitCutSide(t1, t2)
}

// growTables sizes the per-edge side tables to the graph's ID bound.
func (m *MSF) growTables() {
	bound := m.st.g.IDBound()
	for len(m.lctE) < bound {
		m.lctE = append(m.lctE, nil)
	}
	for len(m.st.occU) < bound {
		m.st.occU = append(m.st.occU, nil)
		m.st.occV = append(m.st.occV, nil)
	}
}

// anchorAt returns tree edge e's occurrence anchor at endpoint v: the copy
// of v that precedes the pair leaving v along e.
func (st *Store) anchorAt(e *graph.Edge, v int) *Copy {
	if int(e.U) == v {
		return st.occU[e.ID]
	}
	return st.occV[e.ID]
}

// bumpCharge adjusts the edge charge of a principal copy's chunk after an
// incident edge appeared (+1) or disappeared (-1).
func (st *Store) bumpCharge(cp *Copy, delta int32) {
	if !cp.principal {
		panic("core: bumpCharge on non-principal copy")
	}
	cp.leaf.Agg = btAgg{copies: 1, edges: cp.leaf.Agg.edges + delta}
	st.btOp(func() { st.btT.RefreshUp(cp.leaf) })
}

// DebugString summarizes the structure (for failure messages in tests).
func (m *MSF) DebugString() string {
	st := m.st
	reg := 0
	for _, c := range st.chunks {
		if c != nil {
			reg++
		}
	}
	return fmt.Sprintf("core.MSF{n=%d m=%d forest=%d K=%d J=%d registered=%d normalTours=%d}",
		st.n, st.g.M(), m.size, st.K, st.J, reg, len(st.normal))
}

// VerifyTours is a test hook: checks every tour's cyclic order matches its
// chunk sequence.
func (m *MSF) VerifyTours() error {
	for root, t := range m.st.tourByRoot {
		if t.root != root {
			return fmt.Errorf("tour root map inconsistent")
		}
		if err := seqtree.Validate(root); err != nil {
			return err
		}
		if !m.st.verifyTourMatchesCycle(t) {
			return fmt.Errorf("tour cyclic order does not match chunk sequence")
		}
	}
	return nil
}

// SetEvents installs the forest-change callback (Engine interface form of
// the Events field).
func (m *MSF) SetEvents(f func(u, v int, w Weight, added bool)) { m.Events = f }

// SetCutSides installs the cut-side callback (interface form of the
// CutSides field; see cutsides.go).
func (m *MSF) SetCutSides(f func(side []int32)) { m.CutSides = f }
