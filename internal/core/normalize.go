package core

import "parmsf/internal/seqtree"

// normalize restores the structure's invariants for the recently touched
// chunks queued in normQ, in queue order, and empties the queue. Per chunk,
// in this order: pending row rebuilds, chunk registration (every chunk of
// a multi-chunk list must be registered, and a single-chunk list is
// registered iff n_c >= K — Section 6), then Invariant 1 size repair by
// O(1) splits and merges (Section 2.2), whose pieces join the queue. Each
// engine operation touches O(1) chunks, so this is the paper's "O(1)
// splits and merges followed by O(1) LSDS operations". Nothing normalize
// calls queues chunks of its own, so surgery never nests inside it.
func (st *Store) normalize() {
	for i := 0; i < len(st.normQ); i++ {
		if i > 10000 {
			panic("core: normalize did not converge")
		}
		c := st.normQ[i]
		if c == nil || c.bt == nil {
			continue // chunk died in an earlier merge or copy deletion
		}
		t := st.tourOf(c)
		single := t.root.IsLeaf()
		nc := c.nc()

		// Registration state.
		switch {
		case !single && c.id < 0:
			st.registerChunk(c)
		case single && c.id < 0 && nc >= st.K:
			st.registerChunk(c)
		case single && c.id >= 0 && nc < st.K:
			st.unregisterChunk(c)
			st.setNormal(t, false)
		}
		if c.rowStale && c.id >= 0 {
			st.rebuildRow(c)
		}
		c.rowStale = false

		// Size repair.
		if nc > 3*st.K {
			left, right := st.splitBySize(c)
			st.normQ = append(st.normQ, left, right)
			continue
		}
		if nc < st.K && !single {
			// Merge with a neighbor (next leaf if any, else previous).
			var left, right *Chunk
			if nl := seqtree.Next(c.leaf); nl != nil {
				left, right = c, lsItem(nl)
			} else {
				left, right = lsItem(seqtree.Prev(c.leaf)), c
			}
			st.normQ = append(st.normQ, st.mergeInto(left, right))
			continue
		}
	}
	// Drop the pointers so the pooled capacity pins no retired chunks.
	clear(st.normQ)
	st.normQ = st.normQ[:0]
}

// normTourStatus re-derives a tour's registry membership after surgery (a
// tour is "normal" iff it owns at least one registered chunk, which after
// normalize is equivalent to not being short).
func (st *Store) normTourStatus(t *Tour) {
	if t.root == nil {
		return
	}
	st.setNormal(t, !t.Short())
}
