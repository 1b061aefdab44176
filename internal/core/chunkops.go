package core

import "parmsf/internal/seqtree"

// lsOp runs an LSDS structural operation, counting internal-vector
// recomputations triggered through the Update hook and charging them per
// Lemma 3.2 (one round of J processors per touched node). The sequential
// charger ignores the charge; the per-node vector work over the live chunk
// ids is real either way.
func (st *Store) lsOp(f func()) {
	mark := st.lsTouches
	f()
	st.ch.Par(st.lsTouches-mark, st.J)
}

// btOp runs a BTc structural operation, charging the touched nodes as
// single-processor work ("processor p1 splits BTc", Lemma 3.1).
func (st *Store) btOp(f func()) {
	mark := st.btTouches
	f()
	st.ch.Seq(st.btTouches - mark)
}

// adoptCopies points every copy under bt at chunk c. Sequential cost is the
// chunk size (the paper's "scans all of the vertices ... and updates their
// chunk id"); in parallel one processor per copy is assigned in O(log K)
// rounds. The copies under bt are contiguous in the tour chain, so the scan
// follows next pointers.
func (st *Store) adoptCopies(bt *btNode, c *Chunk) {
	last := btItem(seqtree.Last(bt))
	n := 1
	for cp := btItem(seqtree.First(bt)); ; cp = cp.next {
		cp.chunk = c
		if cp == last {
			break
		}
		n++
	}
	st.ch.Par(bt.Height()+1, n)
}

// ensureBoundaryBefore makes cp the first copy of a chunk, splitting its
// current chunk if needed, and returns cp's chunk. New pieces inherit the
// registration state of the source chunk (unregistered pieces are fixed by
// normalize).
func (st *Store) ensureBoundaryBefore(cp *Copy) *Chunk {
	c := cp.chunk
	if seqtree.First(c.bt) == cp.leaf {
		return c
	}
	st.sts.ChunkSplits++
	t := st.tourOf(c)
	var btL, btR *btNode
	st.btOp(func() { btL, btR = st.btT.SplitBefore(cp.leaf) })
	c.bt = btL
	right := &Chunk{id: -1, bt: btR}
	right.leaf = st.lsT.NewLeaf(right)
	st.adoptCopies(btR, right)
	st.lsOp(func() { st.setRoot(t, st.lsT.InsertAfter(c.leaf, right.leaf)) })
	if c.id >= 0 {
		st.allocID(right)
		st.rebuildRow(c)
		st.rebuildRow(right)
	}
	return right
}

// splitBySize splits an oversized chunk (n_c > 3K) at its weight midpoint,
// locating the split copy by descending BTc with the edge counters
// (sequentially O(K) by scanning, here O(log K) via the counters as in the
// parallel algorithm; both drivers share the descent, the charge differs).
// Returns the new right chunk.
func (st *Store) splitBySize(c *Chunk) *Chunk {
	target := c.nc() / 2
	nd := c.bt
	st.ch.Seq(nd.Height() + 1)
	for !nd.IsLeaf() {
		lw := int(nd.Left().Agg.copies + nd.Left().Agg.edges)
		if lw >= target {
			nd = nd.Left()
		} else {
			target -= lw
			nd = nd.Right()
		}
	}
	next := seqtree.Next(nd)
	if next == nil {
		// The midpoint is the last copy; split before it instead so both
		// sides are non-empty.
		next = nd
		if seqtree.Prev(nd) == nil {
			panic("core: splitBySize on single-copy chunk")
		}
	}
	return st.ensureBoundaryBefore(btItem(next))
}

// mergeInto merges chunk right into its left neighbor (adjacent LSDS
// leaves of one tour). The merged chunk keeps left's identity. Rows are
// combined by entrywise minimum (exact: the charged-edge set is the union),
// as in Lemma 3.1's O(1)-depth merge.
func (st *Store) mergeInto(left, right *Chunk) {
	st.sts.ChunkMerges++
	// A pending row rebuild on either side must survive the merge: the
	// entrywise-minimum fast path below blends whatever the rows currently
	// hold, stale or not.
	left.rowStale = left.rowStale || right.rowStale
	if left.id < 0 && right.id >= 0 {
		// Retire right's registration while its leaf is still in place;
		// normalize re-registers the merged chunk if required.
		st.unregisterChunk(right)
	}
	t := st.tourOf(left)
	st.adoptCopies(right.bt, left)
	st.btOp(func() { left.bt = st.btT.Join(left.bt, right.bt) })
	st.lsOp(func() { st.setRoot(t, st.lsT.DeleteLeaf(right.leaf)) })
	right.leaf = nil

	switch {
	case left.id >= 0 && right.id >= 0:
		li, ri := int(left.id), int(right.id)
		lrow, rrow := st.row(left.id)[:st.hi], st.row(right.id)[:st.hi]
		st.ch.Par(1, st.J)
		for j, w := range rrow {
			if w < lrow[j] {
				lrow[j] = w
			}
		}
		// Edges between the two pieces are now intra-chunk, and the
		// diagonal is not maintained: clear both cells they folded into,
		// then retire right's row.
		lrow[li] = Inf
		lrow[ri] = Inf
		fillInf(rrow)
		// Columns: other chunks now see the union under left's id.
		st.ch.Par(1, st.J)
		for j, oc := range st.chunks[:st.hi] {
			if oc == nil || oc == left || oc == right {
				continue
			}
			lcell := &st.C[j*st.J+li]
			rcell := &st.C[j*st.J+ri]
			if *rcell < *lcell {
				*lcell = *rcell
			}
			*rcell = Inf
		}
		rid := right.id
		st.freeID(right)
		st.sweepColumn(left.id)
		st.sweepColumn(rid)
		st.refreshPath(left)
	case left.id >= 0:
		// Right was unregistered: its charges were invisible; rescan.
		st.rebuildRow(left)
	default:
		// Both unregistered (right possibly retired above): nothing is
		// recorded; normalize registers the result if required.
	}
	right.bt = nil
	right.rowStale = false
}
