package core

import "parmsf/internal/seqtree"

// normalize restores the structure's invariants for the given recently
// touched chunks, in this order per chunk: pending row rebuilds, chunk
// registration (every chunk of a multi-chunk list must be registered, and a
// single-chunk list is registered iff n_c >= K — Section 6), then Invariant
// 1 size repair by O(1) splits and merges (Section 2.2). Each engine
// operation touches O(1) chunks, so this is the paper's "O(1) splits and
// merges followed by O(1) LSDS operations".
func (st *Store) normalize(dirty []*Chunk) {
	queue := dirty
	for guard := 0; len(queue) > 0; guard++ {
		if guard > 10000 {
			panic("core: normalize did not converge")
		}
		c := queue[0]
		queue = queue[1:]
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
			queue = append(queue, left, right)
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
			queue = append(queue, st.mergeInto(left, right))
			continue
		}
	}
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
