package core

// This file implements the deferred half of UpdateAdj used by the batch
// pipeline (plan.go). Non-tree updates change only O(1) CAdj matrix entries
// plus the LSDS aggregates above the touched chunks; the matrix entries are
// cheap and written eagerly, while the O(J)-per-node aggregate refreshes are
// deferred: touched chunks are marked dirty and their ancestor paths are
// recomputed once per batch, deduplicated and level-parallel (all marked
// nodes at one tree depth recompute in a single round, Lemma 3.2 batched).
//
// Staleness discipline: between a mark and its flush, an internal LSDS node
// may hold a stale aggregate only while a dirty chunk leaf remains strictly
// below it (leaf rows themselves are always current). Structural operations
// preserve this: splits, merges and rebuilds recompute the paths they touch
// from current children, so any remaining staleness stays pinned under a
// still-marked leaf. Every reader of aggregates — MWR's gamma scan and the
// Memb tests during surgery — is preceded by a flush.

// markCAdjDirty records that chunk c's CAdj row (or an entry of it) changed
// and its LSDS ancestor path needs a refresh before the next aggregate read.
func (st *Store) markCAdjDirty(c *Chunk) {
	if c == nil || c.dirty {
		return
	}
	c.dirty = true
	st.pendDirty = append(st.pendDirty, c)
}

// flushCAdj recomputes the LSDS aggregates above every dirty chunk: the
// union of the dirty ancestor paths is refreshed bottom-up, one parallel
// round per tree depth (each round charges the Lemma 3.2 shape — J
// processors per node — and executes across the worker pool; nodes at one
// depth have disjoint aggregates, so the kernel is EREW-clean).
func (st *Store) flushCAdj() {
	if len(st.pendDirty) == 0 {
		return
	}
	dirty := st.pendDirty

	// Collect the union of ancestor paths, marking each node's vector with
	// its depth from the root. Walks stop at the first already-marked node,
	// so every node is visited once; order stays deterministic (mark order,
	// leaf to root). All bookkeeping lives in pooled Store scratch and the
	// nodes' own vectors — a steady-state flush allocates nothing.
	nodes := st.flushNodes[:0]
	maxDepth := 0
	for _, c := range dirty {
		c.dirty = false
		if c.bt == nil || c.leaf == nil {
			continue // chunk died; its staleness was cleaned by the merge
		}
		path := st.flushPath[:0]
		d := -1
		for nd := c.leaf.Parent(); nd != nil; nd = nd.Parent() {
			if at := nd.Agg.flushAt; at > 0 {
				d = int(at) - 1
				break
			}
			path = append(path, nd)
		}
		for i := len(path) - 1; i >= 0; i-- {
			d++
			path[i].Agg.flushAt = int32(d + 1)
			nodes = append(nodes, path[i])
			if d > maxDepth {
				maxDepth = d
			}
		}
		st.flushPath = path[:0]
	}
	clear(dirty) // drop the pointers so pooled capacity pins no chunks
	st.pendDirty = dirty[:0]
	if len(nodes) == 0 {
		st.flushNodes = nodes
		return
	}

	buckets := st.flushBuckets
	for len(buckets) < maxDepth+1 {
		buckets = append(buckets, nil)
	}
	for d := 0; d <= maxDepth; d++ {
		buckets[d] = buckets[d][:0]
	}
	for _, nd := range nodes {
		d := nd.Agg.flushAt - 1
		nd.Agg.flushAt = 0
		buckets[d] = append(buckets[d], nd)
	}
	for d := maxDepth; d >= 0; d-- {
		b := buckets[d]
		if len(b) == 0 {
			continue
		}
		// One round of J processors per node (the batched UpdateAdj climb).
		st.ch.Par(1, len(b)*st.J)
		st.flushCur = b
		st.ch.Apply(len(b), st.flushKernel)
		st.flushCur = nil
		clear(b) // drop the pointers so pooled capacity pins no nodes
		buckets[d] = b[:0]
	}
	st.flushBuckets = buckets
	clear(nodes)
	st.flushNodes = nodes[:0]
}
