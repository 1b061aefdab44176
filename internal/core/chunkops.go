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

// adoptCopies points every copy under bt at chunk c, and every vertex whose
// principal copy is among them at c's id. Sequential cost is the piece's
// size (the paper's "scans all of the vertices ... and updates their chunk
// id"); in parallel one processor per copy is assigned in O(log K) rounds.
// Splits and merges pass their smaller piece. The copies under bt are
// contiguous in the tour chain, so the scan follows next pointers.
func (st *Store) adoptCopies(bt *btNode, c *Chunk) {
	last := btItem(seqtree.Last(bt))
	n := 1
	for cp := btItem(seqtree.First(bt)); ; cp = cp.next {
		cp.chunk = c
		if cp.principal && st.pcs[cp.v] == cp {
			st.pcid[cp.v] = c.id
		}
		if cp == last {
			break
		}
		n++
	}
	st.sts.Relabels += int64(n)
	st.ch.Par(bt.Height()+1, n)
}

// stampPCID writes c's id into pcid for every vertex whose principal copy
// lies in c, after c gained or lost its id. A copy that deleteCopy retired
// keeps its principal flag, so the test is against pcs.
func (st *Store) stampPCID(c *Chunk) {
	last := btItem(seqtree.Last(c.bt))
	for cp := btItem(seqtree.First(c.bt)); ; cp = cp.next {
		if cp.principal && st.pcs[cp.v] == cp {
			st.pcid[cp.v] = c.id
		}
		if cp == last {
			return
		}
	}
}

// ensureBoundaryBefore makes cp the first copy of a chunk, splitting its
// current chunk if needed. It returns the piece before cp (nil when cp
// already headed its chunk) and cp's chunk. The chunk object, with its id,
// row and LSDS leaf, stays on the larger piece (the left one on a tie); the
// smaller piece is relabelled into a new chunk, which inherits the source's
// registration state (unregistered pieces are fixed by normalize).
func (st *Store) ensureBoundaryBefore(cp *Copy) (left, right *Chunk) {
	c := cp.chunk
	if seqtree.First(c.bt) == cp.leaf {
		return nil, c
	}
	st.sts.ChunkSplits++
	t := st.tourOf(c)
	var btL, btR *btNode
	st.btOp(func() { btL, btR = st.btT.SplitBefore(cp.leaf) })
	keepLeft := btL.Agg.copies >= btR.Agg.copies
	small := &Chunk{id: -1}
	small.leaf = st.lsT.NewLeaf(small)
	if c.id >= 0 {
		st.allocID(small)
	}
	if keepLeft {
		c.bt, small.bt = btL, btR
		left, right = c, small
	} else {
		c.bt, small.bt = btR, btL
		left, right = small, c
	}
	st.adoptCopies(small.bt, small)
	st.lsOp(func() {
		if keepLeft {
			st.setRoot(t, st.lsT.InsertAfter(c.leaf, small.leaf))
		} else {
			st.setRoot(t, st.lsT.InsertBefore(c.leaf, small.leaf))
		}
	})
	if c.id >= 0 {
		st.rebuildRow(left)
		st.rebuildRow(right)
	}
	return left, right
}

// splitBySize splits an oversized chunk (n_c > 3K) at its weight midpoint,
// locating the split copy by descending BTc with the edge counters
// (sequentially O(K) by scanning, here O(log K) via the counters as in the
// parallel algorithm; both drivers share the descent, the charge differs).
// Returns both pieces, in tour order.
func (st *Store) splitBySize(c *Chunk) (left, right *Chunk) {
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

// mergeInto merges adjacent chunks left and right (consecutive LSDS leaves
// of one tour) and returns the survivor. Of two chunks in the same
// registration state the larger survives (left on a tie), so the smaller
// one's copies are relabelled; a registered left chunk survives an
// unregistered right one, and a registered right chunk is unregistered
// first when left is not. Rows are combined by entrywise minimum (exact:
// the charged-edge set is the union), as in Lemma 3.1's O(1)-depth merge.
func (st *Store) mergeInto(left, right *Chunk) *Chunk {
	st.sts.ChunkMerges++
	if left.id < 0 && right.id >= 0 {
		// Retire right's registration while its leaf is still in place;
		// normalize re-registers the merged chunk if required.
		st.unregisterChunk(right)
	}
	keep, lose := left, right
	if (left.id < 0) == (right.id < 0) && right.size() > left.size() {
		keep, lose = right, left
	}
	// A pending row rebuild on either side must survive the merge: the
	// entrywise-minimum fast path below blends whatever the rows currently
	// hold, stale or not.
	keep.rowStale = keep.rowStale || lose.rowStale
	t := st.tourOf(keep)
	st.adoptCopies(lose.bt, keep)
	st.btOp(func() { keep.bt = st.btT.Join(left.bt, right.bt) })
	// The survivor takes left's LSDS leaf and right's leaf goes, whichever
	// chunk survives, so the tree's shape does not depend on the choice.
	gone := right.leaf
	keep.leaf, left.leaf.Item = left.leaf, keep
	st.lsOp(func() { st.setRoot(t, st.lsT.DeleteLeaf(gone)) })
	lose.leaf = nil

	switch {
	case keep.id >= 0 && lose.id >= 0:
		ki, li := int(keep.id), int(lose.id)
		krow, lrow := st.row(keep.id)[:st.hi], st.row(lose.id)[:st.hi]
		st.ch.Par(1, st.J)
		for j, w := range lrow {
			if w < krow[j] {
				krow[j] = w
			}
		}
		// Edges between the two pieces are now intra-chunk, and the
		// diagonal is not maintained: clear both cells they folded into,
		// then retire the loser's row.
		krow[ki] = Inf
		krow[li] = Inf
		fillInf(lrow)
		// Columns: other chunks now see the union under keep's id.
		st.ch.Par(1, st.J)
		for j, oc := range st.chunks[:st.hi] {
			if oc == nil || oc == keep || oc == lose {
				continue
			}
			r := st.rows[j]
			r[ki] = min(r[ki], r[li])
			r[li] = Inf
		}
		lid := lose.id
		st.freeID(lose)
		st.sweepColumn(keep.id)
		st.sweepColumn(lid)
		st.refreshPath(keep)
	case keep.id >= 0:
		// The loser was unregistered: its charges were invisible; rescan.
		st.rebuildRow(keep)
	default:
		// Both unregistered (right possibly retired above): nothing is
		// recorded; normalize registers the result if required.
	}
	lose.bt = nil
	lose.rowStale = false
	return keep
}
