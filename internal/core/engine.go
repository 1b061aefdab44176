package core

import (
	"errors"
	"fmt"

	"parmsf/internal/faultinject"
	"parmsf/internal/graph"
	"parmsf/internal/lct"
)

// MSF maintains a minimum spanning forest of a dynamic bounded-degree
// sparse graph (Theorem 1.2 with the sequential charger; Theorem 3.1 with a
// PRAM charger). General graphs are handled by the wrappers in
// internal/ternary and internal/sparsify.
type MSF struct {
	st   *Store
	lf   *lct.Forest // the forest's edges, linked under their graph edge IDs
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

// ForestEdges calls f for every forest edge, in edge-ID order.
func (m *MSF) ForestEdges(f func(u, v int, w Weight) bool) {
	g := m.st.g
	g.Edges(func(id int32) bool {
		if !m.st.isTree(id) {
			return true
		}
		u, v := g.Ends(id)
		return f(int(u), int(v), g.Weight(id))
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
	id, err := m.st.g.Insert(u, v, w)
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
	st.noteEdgeEntryInserted(id)
	st.normQ = append(st.normQ, pu.chunk, pv.chunk)
	st.normalize()

	if !connected {
		m.becomeTree(id)
		return nil
	}
	st.ch.Seq(log2ceil(st.n + 1)) // dynamic-tree path-max query
	if heavy := m.lf.PathMaxEdge(u, v); w < st.g.Weight(heavy) {
		st.flushCAdj() // cycle-swap surgery reads Memb aggregates
		m.removeFromForest(heavy)
		m.becomeTree(id)
	}
	return nil
}

// deleteTreeEdge applies one planned tree-edge deletion: cut, surgery, and
// the parallel replacement search. The edge was classified as a live tree
// edge; the plan guarantees that remains true when it applies.
func (m *MSF) deleteTreeEdge(u, v int) {
	st := m.st
	id, err := st.g.Delete(u, v)
	if err != nil || !st.isTree(id) {
		panic("core: planned tree deletion is not a live tree edge")
	}
	w := st.g.Weight(id)

	pu, pv := st.pcs[u], st.pcs[v]
	st.bumpCharge(pu, -1)
	if pv != pu {
		st.bumpCharge(pv, -1)
	}
	st.recomputeEntryPair(pu.chunk, pv.chunk, w)

	st.ch.Seq(log2ceil(st.n + 1)) // dynamic-tree cut
	m.lf.Cut(id)
	m.w -= w
	m.size--
	if m.Events != nil {
		m.Events(u, v, w, false)
	}

	st.flushCAdj() // surgery and MWR read the LSDS aggregates
	t1, t2 := st.cutTours(id)
	// Re-read the principal copies: surgery may have deleted the old ones.
	st.normQ = append(st.normQ, st.pcs[u].chunk, st.pcs[v].chunk)
	st.normalize()
	st.normTourStatus(t1)
	st.normTourStatus(t2)
	m.emitCutSide(t1, t2)

	if r := st.MWR(t1, t2); r >= 0 {
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
	if a == b || e1 < 0 || e2 < 0 || !st.isTree(e1) || !st.isTree(e2) ||
		st.g.Weight(e1) != w || st.g.Weight(e2) != w || st.g.Degree(h) != 2 {
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
	for _, e := range [2]int32{e1, e2} {
		m.lf.Cut(e)
		st.occU[e], st.occV[e] = nil, nil
		eu, ev := st.g.Ends(e)
		if _, err := st.g.Delete(int(eu), int(ev)); err != nil {
			panic("core: splice deletion failed: " + err.Error())
		}
		if m.Events != nil {
			m.Events(int(eu), int(ev), w, false)
		}
	}
	e3, err := st.g.Insert(a, b, w)
	if err != nil {
		panic("core: splice insertion failed: " + err.Error())
	}
	m.growTables()
	m.lf.Link(a, b, w, e3)
	m.w -= w
	m.size--
	if m.Events != nil {
		m.Events(a, b, w, true)
	}

	st.spliceTours(x, y)
	st.occU[e3], st.occV[e3] = x, y
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
	st.normalize()
}

// becomeTree promotes graph edge id to a forest edge: dynamic-tree link
// plus tour splice, which sets its occurrence anchors.
func (m *MSF) becomeTree(id int32) {
	st := m.st
	u, v := st.g.Ends(id)
	w := st.g.Weight(id)
	st.ch.Seq(log2ceil(st.n + 1))
	m.lf.Link(int(u), int(v), w, id)
	m.w += w
	m.size++
	if m.Events != nil {
		m.Events(int(u), int(v), w, true)
	}
	st.linkTours(id)
	st.normalize()
	st.normTourStatus(st.tourOf(st.pcs[u].chunk))
}

// removeFromForest demotes tree edge id to a non-tree edge (the cycle-swap
// path of insertion): dynamic-tree cut plus tour split, which clears its
// occurrence anchors. The edge stays in the graph and in CAdj.
func (m *MSF) removeFromForest(id int32) {
	st := m.st
	u, v := st.g.Ends(id)
	w := st.g.Weight(id)
	st.ch.Seq(log2ceil(st.n + 1))
	m.lf.Cut(id)
	m.w -= w
	m.size--
	if m.Events != nil {
		m.Events(int(u), int(v), w, false)
	}
	t1, t2 := st.cutTours(id)
	st.normalize()
	st.normTourStatus(t1)
	st.normTourStatus(t2)
	m.emitCutSide(t1, t2)
}

// growTables sizes the occurrence anchor tables to the graph's ID bound.
func (m *MSF) growTables() {
	bound := m.st.g.IDBound()
	for len(m.st.occU) < bound {
		m.st.occU = append(m.st.occU, nil)
		m.st.occV = append(m.st.occV, nil)
	}
}

// isTree reports whether graph edge id is a forest edge: exactly the edges
// whose occurrence anchors are set.
func (st *Store) isTree(id int32) bool { return st.occU[id] != nil }

// anchorAt returns tree edge id's occurrence anchor at endpoint v: the copy
// of v that precedes the pair leaving v along the edge.
func (st *Store) anchorAt(id int32, v int) *Copy {
	if u, _ := st.g.Ends(id); int(u) == v {
		return st.occU[id]
	}
	return st.occV[id]
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

// VerifyTours is a test hook: checks that the structure's two records of
// forest membership agree. The edges with occurrence anchors (which
// CheckInvariants validates, with the tours themselves) are exactly the
// edges the link-cut forest holds linked under their IDs, with their
// endpoints and weight, and they number ForestSize.
func (m *MSF) VerifyTours() error {
	st := m.st
	forest := 0
	for i := range st.occU {
		id := int32(i)
		lu, lv, lw, linked := m.lf.Linked(id)
		if linked != st.isTree(id) {
			return fmt.Errorf("edge %d: linked %v, occurrence anchors %v", id, linked, st.isTree(id))
		}
		if !linked {
			continue
		}
		forest++
		if u, v := st.g.Ends(id); lu != int(u) || lv != int(v) || lw != st.g.Weight(id) {
			return fmt.Errorf("edge %d (%d,%d) of weight %d: linked as (%d,%d) of weight %d", id, u, v, st.g.Weight(id), lu, lv, lw)
		}
	}
	if forest != m.size {
		return fmt.Errorf("%d forest edges are linked, ForestSize is %d", forest, m.size)
	}
	return nil
}

// SetEvents installs the forest-change callback (Engine interface form of
// the Events field).
func (m *MSF) SetEvents(f func(u, v int, w Weight, added bool)) { m.Events = f }

// SetCutSides installs the cut-side callback (interface form of the
// CutSides field; see cutsides.go).
func (m *MSF) SetCutSides(f func(side []int32)) { m.CutSides = f }
