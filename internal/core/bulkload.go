package core

import (
	"slices"

	"parmsf/internal/batch"
)

// This file implements the static bulk-load path of the engine: direct
// construction of the whole structure state from a classified edge set,
// bypassing the incremental surgery pipeline entirely. Build (parmsf)
// classifies the initial edge set statically — a filter-Kruskal seed
// partitions it into the minimum spanning forest and its complement — and
// BulkLoad materializes the final state in one pass per layer: the forest
// links, the Euler tours (one DFS per tree, emitting each vertex's copies
// in cyclic order), the chunk partition with its BTc trees, the CAdj rows
// (filled directly from the edge list — each row is final before anything
// reads it), and the LSDS (assembled by joins after the rows are final, so
// every internal vector is computed exactly once).
//
// The incremental path pays for generality it does not need here: every
// tour splice re-establishes chunk boundaries (splitting chunks, rebuilding
// their matrix rows) and every LSDS structural touch recomputes an O(J)
// aggregate vector, so m incremental links cost Theta(m J log) vector work
// even when every intermediate state is about to be torn up by the next
// link. Direct construction does that vector work only for the final state:
// O(#chunks) rows and O(#chunks) internal LSDS nodes, with #chunks =
// O(n/K), so the whole load is O(m + n log n + (n/K) J log), with no
// per-edge structure surgery.

// BulkLoad loads a classified static edge set into an edge-empty engine by
// building the final structure state directly. Every op must be an
// insertion (Del ops panic); tree[i] reports whether ops[i] belongs to the
// minimum spanning forest of the whole op set. The caller guarantees the
// flags mark exactly an MSF: tree ops form a forest (checked), and every
// non-tree op has its endpoints connected by tree ops no heavier than it
// (not checked — a violation yields a spanning forest that is not minimum,
// which later updates then preserve).
//
// Returns pooled per-op error slots (valid until the next batch, as with
// ApplyBatch), non-nil only for graph-level rejections (duplicate edge,
// degree overflow, Inf weight) — a rejected op was not applied. The flags
// must still mark an MSF of the ops that survive: callers reject duplicates
// and bad weights before classifying, so a non-nil slot here means a caller
// bug upstream, not a recoverable condition.
func (m *MSF) BulkLoad(ops []BatchOp, tree []bool) []error {
	if len(ops) != len(tree) {
		panic("core: BulkLoad ops/tree length mismatch")
	}
	st := m.st
	if st.g.M() != 0 {
		panic("core: BulkLoad requires an edge-empty engine")
	}
	st.errScratch = slices.Grow(st.errScratch[:0], len(ops))[:len(ops)]
	errs := st.errScratch
	clear(errs)
	if len(ops) == 0 {
		return errs
	}

	// --- Graph inserts and forest links. ---
	st.ch.Seq(len(ops))
	edges := make([]int32, 0, len(ops))
	treeEdges := make([]int32, 0, len(ops))
	for i, op := range ops {
		if op.Del || op.Splice {
			panic("core: BulkLoad is insert-only")
		}
		if op.W == Inf {
			errs[i] = ErrWeight
			continue
		}
		id, err := st.g.Insert(op.U, op.V, op.W)
		if err != nil {
			errs[i] = err
			continue
		}
		edges = append(edges, id)
		if tree[i] {
			treeEdges = append(treeEdges, id)
		}
	}
	m.growTables()
	// A host union-find checks that the tree flags are acyclic, so a bad
	// flag set panics here with its own message. lct.Link still runs its
	// own Connected assertion (two findRoot splays) on every link.
	var uf batch.UF
	uf.Reset(st.n)
	for _, id := range treeEdges {
		eu, ev := st.g.Ends(id)
		u, v, w := int(eu), int(ev), st.g.Weight(id)
		st.ch.Seq(1 + log2ceil(st.n+1)) // acyclicity check + dynamic-tree link
		if !uf.Union(u, v) {
			panic("core: BulkLoad tree flags do not form a forest")
		}
		m.lf.Link(u, v, w, id)
		m.w += w
		m.size++
		if m.Events != nil {
			m.Events(u, v, w, true)
		}
	}

	// --- Forest adjacency (CSR over tree edges, in op order). ---
	treeDeg := make([]int32, st.n)
	for _, id := range treeEdges {
		u, v := st.g.Ends(id)
		treeDeg[u]++
		treeDeg[v]++
	}
	off := make([]int32, st.n+1)
	for v := 0; v < st.n; v++ {
		off[v+1] = off[v] + treeDeg[v]
	}
	type half struct{ to, eid int32 }
	adj := make([]half, off[st.n])
	cur := make([]int32, st.n)
	copy(cur, off[:st.n])
	for _, id := range treeEdges {
		u, v := st.g.Ends(id)
		adj[cur[u]] = half{v, id}
		cur[u]++
		adj[cur[v]] = half{u, id}
		cur[v]++
	}
	st.ch.Seq(2 * len(treeEdges))

	// --- Euler tours and chunk partition, one component at a time. ---
	// Each tree's tour is emitted by a DFS: a vertex copy on first arrival
	// and one more after each child returns (the root's last return closes
	// the cycle onto its first copy instead). The copy before each descent /
	// return is exactly the edge's occurrence anchor. The linear sequence is
	// cut into chunks of weight ~1.5K..2.5K (copies + charged edges), so
	// Invariant 1 holds by construction: every cut leaves at least K weight
	// behind, and a tail too light to stand alone is absorbed into the last
	// chunk (<= 2.5K+4 <= 3K for K >= 8).
	used := make([]bool, st.n) // principal copy placed / vertex visited
	type frame struct{ v, eid, idx int32 }
	var stack []frame
	var seq []*Copy
	var pend []*btNode // BTc leaves of the chunk being assembled
	var comps [][]*Chunk
	closeAt := (3*st.K + 1) / 2

	appendCopy := func(v int32) {
		var cp *Copy
		if !used[v] {
			used[v] = true
			if cp = st.pcs[v]; cp == nil {
				cp = st.newPrincipal(int(v))
			} else {
				// Retire the singleton tour an earlier, since deleted, edge
				// left the vertex; its chunk is replaced below, its BTc
				// leaf is reused.
				st.dropTour(st.tourOf(cp.chunk))
			}
		} else {
			cp = st.newCopy(int(v))
		}
		seq = append(seq, cp)
	}
	setOcc := func(from, eid int32, anchor *Copy) {
		if u, _ := st.g.Ends(eid); u == from {
			st.occU[eid] = anchor
		} else {
			st.occV[eid] = anchor
		}
	}
	closeChunk := func() *Chunk {
		c := &Chunk{id: -1}
		st.btOp(func() {
			var root *btNode
			for _, l := range pend {
				btItem(l).chunk = c
				root = st.btT.Join(root, l)
			}
			c.bt = root
		})
		pend = pend[:0]
		return c
	}

	for r := 0; r < st.n; r++ {
		if treeDeg[r] == 0 || used[r] {
			continue
		}
		seq = seq[:0]
		appendCopy(int32(r))
		stack = append(stack[:0], frame{v: int32(r), eid: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			hs := adj[off[f.v]:off[f.v+1]]
			if int(f.idx) < len(hs) && hs[f.idx].eid == f.eid {
				f.idx++ // skip the edge we arrived on
				continue
			}
			if int(f.idx) < len(hs) {
				h := hs[f.idx]
				f.idx++
				setOcc(f.v, h.eid, seq[len(seq)-1])
				appendCopy(h.to)
				stack = append(stack, frame{v: h.to, eid: h.eid})
				continue
			}
			v, eid := f.v, f.eid
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				break
			}
			p := &stack[len(stack)-1]
			setOcc(v, eid, seq[len(seq)-1])
			if len(stack) == 1 && int(p.idx) >= int(off[p.v+1]-off[p.v]) {
				continue // root's last return: the cycle closes onto seq[0]
			}
			appendCopy(p.v)
		}
		st.ch.Seq(len(seq))
		for i, cp := range seq {
			nxt := seq[(i+1)%len(seq)]
			cp.next, nxt.prev = nxt, cp
		}

		total := 0
		for _, cp := range seq {
			total++
			if cp.principal {
				total += st.g.Degree(int(cp.v))
			}
		}
		var comp []*Chunk
		acc, running := 0, 0
		for _, cp := range seq {
			wgt := 1
			if cp.principal {
				deg := int32(st.g.Degree(int(cp.v)))
				cp.leaf.Agg = btAgg{copies: 1, edges: deg}
				wgt += int(deg)
			}
			pend = append(pend, cp.leaf)
			acc += wgt
			running += wgt
			if acc >= closeAt && total-running >= st.K {
				comp = append(comp, closeChunk())
				acc = 0
			}
		}
		if len(pend) > 0 {
			comp = append(comp, closeChunk())
		}
		comps = append(comps, comp)
	}

	// --- Vertices that stay isolated in the forest but carry non-tree
	// edges: the charge lands on their singleton chunk. Degree <= 3 keeps
	// n_c <= 4 < K, so the tour stays short (unregistered), as the
	// incremental path would leave it. Vertices with no edge stay as they
	// are, implicit unless an earlier edge materialized them. ---
	st.ch.Seq(st.n)
	for v := 0; v < st.n; v++ {
		if treeDeg[v] != 0 {
			continue
		}
		if d := st.g.Degree(v); d != 0 {
			st.materialize(v)
			st.pcs[v].leaf.Agg = btAgg{copies: 1, edges: int32(d)}
		}
	}

	// --- Registration, then CAdj rows straight from the edge list. Rows
	// are written before any LSDS node exists, so the join pass below
	// computes every internal vector exactly once, from final rows. ---
	for _, comp := range comps {
		if len(comp) == 1 && comp[0].nc() < st.K {
			continue // short list
		}
		for _, c := range comp {
			st.allocID(c)
			st.sts.Registers++
			st.ch.Seq(1)
		}
	}
	for v, cp := range st.pcs {
		if cp != nil {
			st.pcid[v] = cp.chunk.id
		}
	}
	st.ch.Seq(len(edges))
	for _, id := range edges {
		u, v := st.g.Ends(id)
		a, b := int(st.pcid[u]), int(st.pcid[v])
		if a < 0 || b < 0 || a == b {
			continue // unrecorded, or on the unmaintained diagonal
		}
		w := st.g.Weight(id)
		st.rows[a][b] = min(st.rows[a][b], w)
		st.rows[b][a] = min(st.rows[b][a], w)
	}

	// --- LSDS assembly and tour handles. Chunks fold pairwise bottom-up
	// (order-preserving), so most joins combine equal-height trees and the
	// O(J) vector recomputations total O(#chunks) instead of the
	// O(#chunks log #chunks) a left fold would trigger. ---
	var fold []*lsNode
	for _, comp := range comps {
		fold = fold[:0]
		for _, c := range comp {
			c.leaf = st.lsT.NewLeaf(c)
			fold = append(fold, c.leaf)
		}
		var root *lsNode
		st.lsOp(func() {
			nodes := fold
			for len(nodes) > 1 {
				out := 0
				for i := 0; i < len(nodes); i += 2 {
					if i+1 < len(nodes) {
						nodes[out] = st.lsT.Join(nodes[i], nodes[i+1])
					} else {
						nodes[out] = nodes[i]
					}
					out++
				}
				nodes = nodes[:out]
			}
			root = nodes[0]
		})
		t := &Tour{regIdx: -1}
		st.setRoot(t, root)
		st.setNormal(t, comp[0].id >= 0)
	}
	return errs
}
