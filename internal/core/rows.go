package core

import (
	"math/bits"

	"parmsf/internal/seqtree"
)

// rebuildRow recomputes registered chunk c's CAdj row from its charged
// edges, pushes the symmetric column, sweeps the column through all LSDS
// trees and refreshes c's own path (Lemma 2.2; a PRAM charger charges the
// row as Lemma 3.1's tournament, chargeRowTournament). The diagonal cell is
// left at Inf.
//
// The charged edges are those incident to graph vertices whose principal
// copy lies in c (at most 3 per principal copy, so O(K) total under
// Invariant 1). The chunk's copies are contiguous in the tour chain, so the
// scan follows next pointers from the first to the last BTc leaf, and each
// edge costs index loads: its far endpoint's principal-chunk id and its
// weight. Under a PRAM charger the scan also records each edge's
// destination id for the tournament charge.
func (st *Store) rebuildRow(c *Chunk) {
	if c.id < 0 {
		panic("core: rebuildRow on unregistered chunk")
	}
	st.sts.RowRebuilds++
	c.rowStale = false
	row := st.row(c.id)
	st.ch.Par(1, st.J) // parallel row clear: one round, J processors
	fillInf(row[:st.hi])
	charge := st.ch.Machine() != nil
	dests := st.rowDests[:0]
	g, pcid := st.g, st.pcid
	last := btItem(seqtree.Last(c.bt))
	for cp := btItem(seqtree.First(c.bt)); ; cp = cp.next {
		if cp.principal {
			for _, h := range g.Adj(cp.v) {
				o := pcid[h.To]
				if charge {
					dests = append(dests, o)
				}
				if o >= 0 {
					if w := g.Weight(h.ID); w < row[o] {
						row[o] = w
					}
				}
			}
		}
		if cp == last {
			break
		}
	}
	if charge {
		st.rowDests = dests
		st.chargeRowTournament(c, dests)
	}
	// Intra-chunk edges reached the diagonal above; the tournament charge
	// counts them too, so it follows every charged edge.
	row[c.id] = Inf

	st.pushColumn(c)
	st.sweepColumn(c.id)
	st.refreshPath(c)
}

// chargeRowTournament charges c's row rebuild as Section 3.1 runs it:
// getEdge assigns a processor per charged edge (O(log K) phases over BTc),
// and Lemma 3.1's four-phase tournament, one tree per destination chunk id
// (dests, in scan order), resolves the writes to each cell.
func (st *Store) chargeRowTournament(c *Chunk, dests []int32) {
	st.ch.Par(btHeight(c)+3, c.edgeCount())
	if st.rowPrev == nil {
		st.rowPrev = make([]int32, st.J)
	}
	chargeTournament(st.ch, dests, 3*st.K+4, st.rowPrev)
}

// chargeTournament charges what tourney.Forest.Run charges for one run on
// trees of `leaves` leaves whose k-th entry is destined for tree dests[k]
// (negative: an inactive slot): one placement round over the active
// entries, then four rounds per level with one processor per surviving
// (tree, block) pair. An entry opens no pair at level l once it shares the
// level's block with the previous entry p of its tree, which holds for
// l >= bitlen(k xor p). prev is a zeroed slice indexed by tree, and is left
// zeroed.
func chargeTournament(ch Charger, dests []int32, leaves int, prev []int32) {
	levels := max(log2ceil(leaves), 1)
	if len(dests) > 1<<levels {
		panic("core: more charged edges than tournament leaves")
	}
	var merged [32]int // merged[b]: entries whose pair merges at level b
	placed := 0
	for k, d := range dests {
		if d < 0 {
			continue
		}
		placed++
		if p := prev[d]; p > 0 {
			merged[bits.Len(uint(k^int(p-1)))]++
		}
		prev[d] = int32(k + 1)
	}
	for _, d := range dests {
		if d >= 0 {
			prev[d] = 0
		}
	}
	ch.Par(1, placed)
	for l, active := 0, placed; l < levels && active > 0; l++ {
		ch.Par(4, active)
		active -= merged[l+1]
	}
}

// pushColumn copies row c into column c across all registered rows
// (CAdj_{c'}[id_c] = CAdj_c[id_{c'}], which holds because the minimum is
// over the same edge set).
func (st *Store) pushColumn(c *Chunk) {
	row := st.row(c.id)
	st.ch.Par(1, st.J)
	for j, oc := range st.chunks[:st.hi] {
		if oc != nil {
			st.rows[j][c.id] = row[j]
		}
	}
}

// clearColumn sets column id to Inf in every registered row.
func (st *Store) clearColumn(id int32) {
	st.ch.Par(1, st.J)
	for j, oc := range st.chunks[:st.hi] {
		if oc != nil {
			st.rows[j][id] = Inf
		}
	}
}

// sweepColumn recomputes entry id of every internal LSDS node in every
// normal tour, bottom-up (the second half of UpdateAdj: Lemma 2.3's O(J)
// scan; Lemma 3.2's parallel leftmost-child climb).
func (st *Store) sweepColumn(id int32) {
	st.sts.ColumnSweeps++
	total := 0
	for _, t := range st.normal {
		total += st.sweepColumnTree(t.root, id)
	}
	st.ch.Climb(total + 1)
}

// sweepColumnTree recomputes column id below nd and returns the number of
// nodes visited.
func (st *Store) sweepColumnTree(nd *lsNode, id int32) int {
	if nd.IsLeaf() {
		return 1
	}
	n := 1 + st.sweepColumnTree(nd.Left(), id) + st.sweepColumnTree(nd.Right(), id)
	w, m := st.columnEntry(nd.Left(), id)
	w2, m2 := st.columnEntry(nd.Right(), id)
	if w2 < w {
		w = w2
	}
	nd.Agg.cadj[id] = w
	i, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	if m || m2 {
		nd.Agg.memb[i] |= bit
	} else {
		nd.Agg.memb[i] &^= bit
	}
	return n
}

// columnEntry reads entry id of a node's effective vector.
func (st *Store) columnEntry(nd *lsNode, id int32) (Weight, bool) {
	if nd.IsLeaf() {
		c := lsItem(nd)
		if c.id < 0 {
			return Inf, false
		}
		return st.row(c.id)[id], c.id == id
	}
	return nd.Agg.cadj[id], hasBit(nd.Agg.memb, int(id))
}

// refreshPath recomputes the full vectors of every strict ancestor of c's
// leaf (the first half of UpdateAdj). Sequential cost O(J log J); parallel
// cost O(log J) depth with J processors (one per column, Lemma 3.2).
func (st *Store) refreshPath(c *Chunk) {
	st.sts.PathRefreshes++
	depth := 0
	for nd := c.leaf.Parent(); nd != nil; nd = nd.Parent() {
		st.lsUpdate(nd)
		depth++
	}
	st.ch.Par(depth, st.J)
}

// registerChunk gives c a matrix id and publishes its connectivity
// information (the Section 6 transition from a short list, and the second
// half of every chunk split).
func (st *Store) registerChunk(c *Chunk) {
	if c.id >= 0 {
		return
	}
	st.sts.Registers++
	st.allocID(c)
	st.stampPCID(c)
	t := st.tourOf(c)
	st.setNormal(t, true)
	st.rebuildRow(c)
}

// unregisterChunk withdraws c from the matrix (the transition back to a
// short list).
func (st *Store) unregisterChunk(c *Chunk) {
	if c.id < 0 {
		return
	}
	st.sts.Unregisters++
	fillInf(st.row(c.id)[:st.hi])
	st.ch.Par(1, st.J)
	st.clearColumn(c.id)
	id := c.id
	st.freeID(c)
	st.stampPCID(c)
	st.sweepColumn(id)
	st.refreshPath(c)
}

// noteEdgeEntryInserted records a new graph edge in the matrix: a min-update
// of the symmetric entry pair (Section 2.6, insertion). The aggregate
// refreshes above the touched chunks are deferred to the batch flush.
func (st *Store) noteEdgeEntryInserted(id int32) {
	st.ch.Seq(1)
	u, v := st.g.Ends(id)
	st.lowerEntryPair(st.pcs[u].chunk, st.pcs[v].chunk, st.g.Weight(id))
}

// lowerEntryPair min-updates the symmetric entry pair (c1, c2) with an edge
// of weight w newly charged between them and marks both chunks for the
// deferred aggregate flush. An intra-chunk edge (c1 == c2) writes nothing,
// since the diagonal is not maintained, but still marks the chunk, so the
// flush charges follow every charged edge. Entries of unregistered chunks
// are not recorded.
func (st *Store) lowerEntryPair(c1, c2 *Chunk, w Weight) {
	if c1.id < 0 || c2.id < 0 {
		return
	}
	st.markCAdjDirty(c1)
	if c2 == c1 {
		return
	}
	st.markCAdjDirty(c2)
	r1, r2 := st.row(c1.id), st.row(c2.id)
	r1[c2.id] = min(r1[c2.id], w)
	r2[c1.id] = min(r2[c1.id], w)
}

// recomputeEntryPair recomputes the symmetric entry pair (c1, c2) after an
// edge of weight w charged between them was deleted, by scanning c1's
// charged edges (Section 2.6, deletion: O(K) sequentially, a tournament in
// parallel). The scan is charged either way, but it runs only if the
// deletion can have changed the entry (entryMayChange). The aggregate
// refreshes above the pair are deferred to the batch flush.
func (st *Store) recomputeEntryPair(c1, c2 *Chunk, w Weight) {
	if c1.id < 0 || c2.id < 0 {
		return
	}
	st.chargeEntryPairScan(c1)
	if st.entryMayChange(c1, c2, w) {
		st.sts.EntryScans++
		st.scanEntryPair(c1, c2)
	}
	st.markCAdjDirty(c1)
	if c2 != c1 {
		st.markCAdjDirty(c2)
	}
}

// entryMayChange reports whether deleting an edge of weight w between
// registered chunks c1 and c2 can change their entry: not on the diagonal,
// which is not maintained, and not when a strictly lighter edge still sets
// the entry. A tie may be the deleted edge itself, and a row awaiting its
// rebuild may not hold its minimum, so both rescan.
func (st *Store) entryMayChange(c1, c2 *Chunk, w Weight) bool {
	if c1 == c2 {
		return false
	}
	return c1.rowStale || c2.rowStale || w <= st.row(c1.id)[c2.id]
}

// chargeEntryPairScan charges the model cost of one entry-pair scan (the
// getEdge assignment over c1's BTc plus the tournament climb). Shared by
// recomputeEntryPair and the non-tree deletion stage, whose scans run
// apart from their charges on the worker pool.
func (st *Store) chargeEntryPairScan(c1 *Chunk) {
	st.ch.Par(btHeight(c1)+3, c1.edgeCount())
	st.ch.Climb(c1.edgeCount() + 1)
}

// scanEntryPair is the uncharged kernel of recomputeEntryPair: scan c1's
// charged edges for the minimum to c2 (a distinct chunk) and write the
// symmetric entry pair. It writes only the pair's cells, so scans of
// distinct pairs run concurrently (the batch group stage).
func (st *Store) scanEntryPair(c1, c2 *Chunk) {
	w := Inf
	g, pcid, id2 := st.g, st.pcid, c2.id
	last := btItem(seqtree.Last(c1.bt))
	for cp := btItem(seqtree.First(c1.bt)); ; cp = cp.next {
		if cp.principal {
			for _, h := range g.Adj(cp.v) {
				if pcid[h.To] == id2 {
					w = min(w, g.Weight(h.ID))
				}
			}
		}
		if cp == last {
			break
		}
	}
	st.row(c1.id)[id2] = w
	st.row(id2)[c1.id] = w
}

// btHeight returns the height of c's BTc.
func btHeight(c *Chunk) int { return c.bt.Height() }
