package core

import (
	"math/bits"

	"parmsf/internal/seqtree"
)

// MWR finds the minimum-weight replacement edge between tours t1 and t2:
// the lightest graph edge with one endpoint's principal copy in a chunk of
// t1 and the other's in a chunk of t2 (Lemma 2.4 sequentially, Lemma 3.3 in
// parallel, Section 6 when either tour is short). Returns its edge ID, or
// -1 when the tours are not reconnectable.
func (st *Store) MWR(t1, t2 *Tour) int32 {
	st.sts.MWRQueries++
	if t1.Short() {
		return st.mwrScanShort(t1, t2)
	}
	if t2.Short() {
		return st.mwrScanShort(t2, t1)
	}
	return st.mwrGamma(t1, t2)
}

// rootCAdj returns t's root CAdj view: the aggregate vector for internal
// roots, or the chunk's matrix row for a single registered chunk.
func (st *Store) rootCAdj(t *Tour) []Weight {
	if t.root.IsLeaf() {
		return st.row(lsItem(t.root).id)
	}
	return t.root.Agg.cadj
}

// tourHasChunkID reports whether registered chunk id belongs to tour t,
// via the root Memb vector (O(1)).
func tourHasChunkID(t *Tour, id int32) bool {
	if t.root.IsLeaf() {
		c := lsItem(t.root)
		return c.id == id
	}
	return hasBit(t.root.Agg.memb, int(id))
}

// mwrGamma is the normal-by-normal case: build gamma = CAdj_{r1} masked by
// Memb_{r2}, locate the chunk holding the minimum, then scan that chunk's
// charged edges and verify candidates against Memb_{r1}.
func (st *Store) mwrGamma(t1, t2 *Tour) int32 {
	cadj1 := st.rootCAdj(t1)
	bestID := -1
	best := Inf

	if t2.root.IsLeaf() {
		// gamma has a single live entry.
		id := lsItem(t2.root).id
		st.ch.Seq(1)
		if w := cadj1[id]; w < Inf {
			bestID, best = int(id), w
		}
	} else {
		// Charged as Lemma 3.3 runs it (processor j computes gamma[j] in
		// O(1), then a tournament finds the minimum); the host scans the
		// Memb bits instead.
		st.ch.Par(1, st.J)
		var live int
		bestID, best, live = gammaMin(cadj1, t2.root.Agg.memb, st.hi)
		chargeMinReduce(st.ch, live)
	}
	if bestID < 0 {
		return -1
	}
	hat := st.chunks[bestID]
	if hat == nil {
		panic("core: gamma pointed at a free chunk id")
	}
	e := st.scanChunkForMWR(hat, t1)
	if e < 0 || st.g.Weight(e) != best {
		panic("core: MWR scan disagrees with gamma minimum")
	}
	return e
}

// scanChunkForMWR scans hat's charged edges for the lightest one whose far
// endpoint lies in the other tour (the verified-candidate scan of Lemmas
// 2.4 / 3.3), filtering inline during the charged-edge walk: the earliest
// strictly-minimal candidate wins. Returns its edge ID, or -1.
func (st *Store) scanChunkForMWR(hat *Chunk, other *Tour) int32 {
	ec := hat.edgeCount()
	st.ch.Par(btHeight(hat)+3, ec) // getEdge assignment
	st.ch.Par(log2ceil(st.K+1), ec)
	st.ch.Climb(ec + 1)
	g := st.g
	found, best := int32(-1), Inf
	last := btItem(seqtree.Last(hat.bt))
	for cp := btItem(seqtree.First(hat.bt)); ; cp = cp.next {
		if cp.principal {
			for _, h := range g.Adj(cp.v) {
				w := g.Weight(h.ID)
				if (found < 0 || w < best) && st.principalInTour(h.To, other) {
					found, best = h.ID, w
				}
			}
		}
		if cp == last {
			break
		}
	}
	return found
}

// principalInTour reports whether vertex v's principal copy lies in tour t.
// A registered chunk uses the O(1) root Memb test; an unregistered chunk
// can only be the single chunk of a short tour.
func (st *Store) principalInTour(v int32, t *Tour) bool {
	if o := st.pcid[v]; o >= 0 {
		return tourHasChunkID(t, o)
	}
	return t.root.IsLeaf() && lsItem(t.root) == st.pcs[v].chunk
}

// mwrScanShort handles the Section 6 case: scan every principal copy of the
// short tour's single chunk directly (O(K) sequentially; a tournament over
// O(K) processors in parallel).
func (st *Store) mwrScanShort(short, other *Tour) int32 {
	hat := lsItem(short.root)
	if !short.root.IsLeaf() {
		panic("core: mwrScanShort on non-short tour")
	}
	return st.scanChunkForMWR(hat, other)
}

// gammaMin scans gamma = cadj masked by memb over the ids below hi. It
// returns the lowest id holding the minimum (-1 and Inf when gamma has no
// finite entry) and the number of finite entries, which Lemma 3.3's
// tournament takes as its contestants.
func gammaMin(cadj []Weight, memb []uint64, hi int) (bestID int, best Weight, live int) {
	bestID, best = -1, Inf
	for w := 0; w < (hi+63)/64; w++ {
		for word := memb[w]; word != 0; word &= word - 1 {
			j := w*64 + bits.TrailingZeros64(word)
			if v := cadj[j]; v < Inf {
				live++
				if v < best {
					best, bestID = v, j
				}
			}
		}
	}
	return bestID, best, live
}

// chargeMinReduce charges what tourney.MinReduce charges for a minimum over
// live contestants: one load round, then one round per halving. It returns
// at once without a machine.
func chargeMinReduce(ch Charger, live int) {
	if ch.Machine() == nil {
		return
	}
	ch.Par(1, live)
	for live > 1 {
		live = (live + 1) / 2
		ch.Par(1, live)
	}
}

// firstCopy returns the first copy of t's first chunk.
func firstCopy(t *Tour) *Copy { return btItem(seqtree.First(lsItem(seqtree.First(t.root)).bt)) }
