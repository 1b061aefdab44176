package core

import (
	"cmp"

	"parmsf/internal/seqtree"
)

// This file implements the surgical list operations of Lemma 2.1: splicing
// two Euler tours together when a tree edge appears, and splitting one tour
// in two when a tree edge disappears. Tours are cyclic sequences of vertex
// copies; the cyclic order is carried by Copy.next/prev, while the chunk
// partition and LSDS hold the same sequence linearly (read cyclically).
//
// Conventions, following the construction in the overview of Section 2:
// a tree edge e=(u,v) appears in the tour as exactly two adjacent pairs,
// (x, x.next) with x a copy of u (the u->v traversal, anchored by occU) and
// (y, y.next) with y a copy of v (v->u, anchored by occV). A vertex has
// max(1, deg_F(v)) copies; joining trees adds one copy at each endpoint
// (none at an endpoint that was isolated), cutting removes them again.

// newCopy creates a non-principal copy of v, inserts it into v's ring and
// gives it a detached BTc leaf (one copy, no charged edges) for the caller
// to place.
func (st *Store) newCopy(v int) *Copy {
	cp := &Copy{v: int32(v)}
	anchor := st.pcs[v]
	cp.ringNext = anchor.ringNext
	cp.ringPrev = anchor
	anchor.ringNext.ringPrev = cp
	anchor.ringNext = cp
	cp.leaf = st.btT.NewLeaf(cp)
	cp.leaf.Agg = btAgg{copies: 1}
	st.ch.Seq(1)
	return cp
}

// linkTours splices the tours of edge id's endpoints into one around it,
// setting its occurrence anchors, which makes it a tree edge. The endpoints
// must currently be in different tours. It queues the chunks whose
// contents changed for normalize. A link with an isolated endpoint takes
// the leaf-local path of linkIsolated; any other link makes each
// endpoint's copy a chunk head, splitting up to two chunks.
func (st *Store) linkTours(id int32) {
	st.sts.TourLinks++
	eu, ev := st.g.Ends(id)
	u, v := int(eu), int(ev)
	cu, cv := st.pcs[u], st.pcs[v]
	tu := st.tourOf(cu.chunk)
	tv := st.tourOf(cv.chunk)
	if tu == tv {
		panic("core: linkTours within one tour")
	}
	switch {
	case cu.next == cu: // u isolated: single copy, no pairs
		st.linkIsolated(id, cu, tu, cv)
		return
	case cv.next == cv:
		st.linkIsolated(id, cv, tv, cu)
		return
	}

	// --- Rearrange the v-side list (tv) to start at cv. ---
	var tvRoot *lsNode
	cvLeft, cvChunk := st.ensureBoundaryBefore(cv)
	if first := seqtree.First(tv.root); first != cvChunk.leaf {
		st.lsOp(func() {
			p, q := st.lsT.SplitBefore(cvChunk.leaf)
			tvRoot = st.lsT.Join(q, p)
		})
		st.setRoot(tv, tvRoot) // keep tv live for column sweeps below
	} else {
		tvRoot = tv.root
	}

	// --- Insert the new copies. ---
	ap, bq := cu.prev, cv.prev // cyclic predecessors before splicing
	// u2 becomes the first copy of the v-side part: immediately before cv
	// in cv's chunk.
	u2 := st.newCopy(u)
	u2.chunk = cv.chunk
	st.btOp(func() { cv.chunk.bt = st.btT.InsertBefore(cv.leaf, u2.leaf) })
	// v2 becomes the last copy of the v-side part: immediately after bq
	// (the cyclic predecessor of cv) in bq's chunk.
	v2 := st.newCopy(v)
	v2.chunk = bq.chunk
	st.btOp(func() { bq.chunk.bt = st.btT.InsertAfter(bq.leaf, v2.leaf) })
	bqChunk := bq.chunk

	// --- Splice the cyclic copy order: [.. ap, u2, cv, .., bq, v2, cu ..].
	st.ch.Seq(1)
	ap.next = u2
	u2.prev = ap
	u2.next = cv
	cv.prev = u2
	bq.next = v2
	v2.prev = bq
	v2.next = cu
	cu.prev = v2

	// --- Occurrence anchors: the copy preceding each directed pair. ---
	st.occU[id] = u2
	st.occV[id] = v2

	// --- Splice the linear chunk sequences: X + tv' + Y. ---
	cuLeft, cuChunk := st.ensureBoundaryBefore(cu)
	tvWasNormal := tv.regIdx >= 0
	st.dropTour(tv)
	st.lsOp(func() {
		x, y := st.lsT.SplitBefore(cuChunk.leaf)
		st.setRoot(tu, st.lsT.Join(st.lsT.Join(x, tvRoot), y))
	})
	if tvWasNormal {
		st.setNormal(tu, true)
	}
	// The chunks whose contents changed, for normalize: the piece before
	// each endpoint's copy (its whole chunk when no split happened), the
	// v-side head chunk, the chunk v2 joined and the u-side head chunk.
	st.normQ = append(st.normQ, cmp.Or(cuLeft, cuChunk), cmp.Or(cvLeft, cvChunk), cvChunk, bqChunk, cuChunk)
}

// linkIsolated is linkTours' leaf-local path for an endpoint x that is
// isolated: its single principal copy cx is alone in a one-copy chunk,
// which is always an unregistered short list (n_c <= 4 < K). Instead of
// splitting cy's chunk and splicing tours, cx and y's new copy y2 go into
// the chunk of y's principal copy cy, immediately before cy, so the cyclic
// order reads pred(cy) -> y2 -> cx -> cy and no chunk boundary moves. The
// retired short list recorded no CAdj entries, so folding x's edges into
// the host chunk's row is a symmetric min-update per edge, exact because a
// row is a minimum over its chunk's charged edges. When y is isolated too,
// y gains no copy and the tour is just cx, cy.
func (st *Store) linkIsolated(id int32, cx *Copy, tx *Tour, cy *Copy) {
	c := cy.chunk
	y2 := cy
	if cy.next != cy {
		y2 = st.newCopy(int(cy.v))
		y2.chunk = c
		st.btOp(func() { c.bt = st.btT.InsertBefore(cy.leaf, y2.leaf) })
	}

	// Retire x's one-copy chunk and its tour; cx's BTc leaf, which already
	// carries x's edge charge, moves into c.
	st.dropTour(tx)
	xc := cx.chunk
	xc.bt, xc.leaf = nil, nil
	cx.chunk = c
	st.pcid[cx.v] = c.id
	st.btOp(func() { c.bt = st.btT.InsertBefore(cy.leaf, cx.leaf) })

	// Splice the cyclic copy order; the pair into cy now enters y2.
	st.ch.Seq(1)
	p := cy.prev // cy itself when y is isolated
	if y2 != cy {
		p.next = y2
		y2.prev = p
		p = y2
	}
	p.next = cx
	cx.prev = p
	cx.next = cy
	cy.prev = cx

	// Occurrence anchors: cx precedes x->y, p (y2, or cy) precedes y->x.
	if u, _ := st.g.Ends(id); u == cx.v {
		st.occU[id], st.occV[id] = cx, p
	} else {
		st.occU[id], st.occV[id] = p, cx
	}

	if c.id >= 0 {
		for _, h := range st.g.Adj(cx.v) {
			st.ch.Seq(1)
			st.lowerEntryPair(c, st.pcs[h.To].chunk, st.g.Weight(h.ID))
		}
	}
	st.normQ = append(st.normQ, c)
}

// cutTours splits the tour containing tree edge id (u, v) in two, removing
// the duplicate copies at the cut points, and clears the edge's occurrence
// anchors. The edge may already have left the graph (Ends still reads it).
// It returns the two resulting tours — first the one containing u, then
// v — and queues the dirty chunks for normalize. A cut that isolates an
// endpoint takes the leaf-local path of cutLeaf; any other cut makes both
// segment heads chunk heads, splitting up to two chunks.
func (st *Store) cutTours(id int32) (tU, tV *Tour) {
	st.sts.TourCuts++
	u, v := st.g.Ends(id)
	a := st.occU[id] // copy of u; pair (a, b) is the u->v traversal
	b := a.next
	c := st.occV[id] // copy of v; pair (c, d) is the v->u traversal
	d := c.next
	if a.v != u || b.v != v || c.v != v || d.v != u {
		panic("core: occurrence anchors inconsistent with edge")
	}
	t := st.tourOf(a.chunk)
	st.occU[id] = nil
	st.occV[id] = nil
	switch {
	case b == c: // v becomes isolated: segment [b..c] is one copy
		return t, st.cutLeaf(b)
	case a == d:
		return st.cutLeaf(a), t
	}

	// Chunk boundaries before the segment heads. Both may fall in one
	// chunk, and d's split may then move b into the piece it relabels, so
	// both heads' chunks are read after the second split.
	st.ensureBoundaryBefore(b)
	st.ensureBoundaryBefore(d)
	cb, cd := b.chunk, d.chunk
	st.normQ = append(st.normQ, cb, cd, a.chunk, c.chunk)

	// Split the linear chunk sequence into the two cyclic segments
	// S_v = [b..c] and S_u = [d..a].
	var suRoot, svRoot *lsNode
	if cb == cd {
		// b and d are distinct copies and both are chunk heads after the
		// boundary calls, so they cannot share a chunk.
		panic("core: cut boundaries collapsed")
	}
	st.lsOp(func() {
		if seqtree.Before(cb.leaf, cd.leaf) {
			p1, _ := st.lsT.SplitBefore(cb.leaf) // middle part re-split below
			sv, p3 := st.lsT.SplitBefore(cd.leaf)
			svRoot = sv
			suRoot = st.lsT.Join(p3, p1)
		} else {
			p1, _ := st.lsT.SplitBefore(cd.leaf)
			su, p3 := st.lsT.SplitBefore(cb.leaf)
			suRoot = su
			svRoot = st.lsT.Join(p3, p1)
		}
	})

	// Re-close the two cyclic copy orders.
	st.ch.Seq(1)
	c.next = b
	b.prev = c
	a.next = d
	d.prev = a

	// Tour handles: t keeps the u-side; the v-side gets a fresh tour. The
	// v-side registry status must be set eagerly: later column sweeps in
	// this operation must visit it if it owns registered chunks.
	st.setRoot(t, suRoot)
	tV = &Tour{regIdx: -1}
	st.setRoot(tV, svRoot)
	st.setNormal(tV, anyRegistered(svRoot))

	// Remove the duplicate copies at the seams.
	st.deleteCopy(c)
	st.deleteCopy(a)
	return t, tV
}

// cutLeaf is cutTours' leaf-local path for a cut that leaves x's vertex
// isolated: x, its only (hence principal) copy, is detached into a fresh
// short list, and the seam copy preceding it — a duplicate of the other
// endpoint's copy that follows x — is deleted as on the general path (none
// when that side is a single copy too). No chunk boundary moves. Returns
// x's new tour; the dirty chunks are queued.
func (st *Store) cutLeaf(x *Copy) *Tour {
	p, q := x.prev, x.next
	t := st.detachCopy(x)
	if p != q {
		st.deleteCopy(p)
	}
	return t
}

// spliceTours is the Euler-tour surgery of a splice (engine.go): the two
// copies of degree-2 vertex h, x.next and y.next, leave the cyclic order,
// so "… x,h,b … y,h,a …" reads "… x,b … y,a …" and x and y precede the
// pairs of the new edge (a, b). h's non-principal copy is deleted and its
// principal copy, whose edges are gone, is detached into a fresh short
// list. No chunk boundary moves. The dirty chunks are queued.
func (st *Store) spliceTours(x, y *Copy) {
	hp, hn := x.next, y.next
	if !hp.principal {
		hp, hn = hn, hp
	}
	st.deleteCopy(hn)
	// Drop h's edge charge; detaching refreshes the old BTc path.
	hp.leaf.Agg = btAgg{copies: 1}
	st.detachCopy(hp)
}

// detachCopy moves x, the only copy of its vertex, out of its chunk's BTc
// into a fresh one-copy short list and tour, closing the cyclic order
// around it. No chunk boundary moves; the old chunk's row is rebuilt by
// normalize only if x still has incident edges, whose charges leave with
// it. Returns x's new tour, and queues the old chunk, which keeps a copy:
// under Invariant 1 every chunk of a tour with two or more copies holds at
// least two.
func (st *Store) detachCopy(x *Copy) *Tour {
	old := x.chunk
	st.btOp(func() { old.bt = st.btT.DeleteLeaf(x.leaf) })
	if x.leaf.Agg.edges > 0 {
		old.rowStale = true
	}
	t := st.soloTour(x)

	st.ch.Seq(1)
	p, q := x.prev, x.next
	p.next = q
	q.prev = p
	x.next, x.prev = x, x
	st.normQ = append(st.normQ, old)
	return t
}

// anyRegistered reports whether the subtree rooted at nd contains a
// registered chunk (via the maintained Memb aggregate for internal nodes).
func anyRegistered(nd *lsNode) bool {
	if nd.IsLeaf() {
		return lsItem(nd).id >= 0
	}
	for _, w := range nd.Agg.memb {
		if w != 0 {
			return true
		}
	}
	return false
}

// deleteCopy removes cp from its ring, cyclic order, chunk and (if the
// chunk empties) LSDS, migrating the principal designation if needed. It
// queues the chunks whose charge sets changed.
func (st *Store) deleteCopy(cp *Copy) {
	st.ch.Seq(1)
	if cp.ringNext == cp {
		panic("core: deleting the only copy of a vertex")
	}
	if cp.principal {
		np := cp.ringNext
		np.principal = true
		st.pcs[cp.v] = np
		st.pcid[cp.v] = np.chunk.id
		// Charges move from cp's chunk to np's chunk.
		deg := int32(st.g.Degree(int(cp.v)))
		np.leaf.Agg = btAgg{copies: 1, edges: deg}
		st.btOp(func() { st.btT.RefreshUp(np.leaf) })
		np.chunk.rowStale = true
		cp.chunk.rowStale = true
		st.normQ = append(st.normQ, np.chunk, cp.chunk)
	}
	cp.ringPrev.ringNext = cp.ringNext
	cp.ringNext.ringPrev = cp.ringPrev
	cp.prev.next = cp.next
	cp.next.prev = cp.prev

	ck := cp.chunk
	if seqtree.First(ck.bt) == cp.leaf && seqtree.Last(ck.bt) == cp.leaf {
		// Chunk becomes empty: remove it from its tour entirely.
		t := st.tourOf(ck)
		if ck.id >= 0 {
			st.unregisterChunk(ck)
		}
		st.lsOp(func() { st.setRoot(t, st.lsT.DeleteLeaf(ck.leaf)) })
		ck.bt = nil
		ck.leaf = nil
	} else {
		st.btOp(func() { ck.bt = st.btT.DeleteLeaf(cp.leaf) })
		st.normQ = append(st.normQ, ck)
	}
	cp.chunk = nil
	cp.leaf = nil
}
