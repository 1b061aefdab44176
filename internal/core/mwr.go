package core

import (
	"math/bits"

	"parmsf/internal/graph"
	"parmsf/internal/seqtree"
	"parmsf/internal/tourney"
)

// MWR finds the minimum-weight replacement edge between tours t1 and t2:
// the lightest graph edge with one endpoint's principal copy in a chunk of
// t1 and the other's in a chunk of t2 (Lemma 2.4 sequentially, Lemma 3.3 in
// parallel, Section 6 when either tour is short). Returns nil when the
// tours are not reconnectable.
func (st *Store) MWR(t1, t2 *Tour) *graph.Edge {
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
func (st *Store) mwrGamma(t1, t2 *Tour) *graph.Edge {
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
		memb2 := t2.root.Agg.memb
		if m := st.ch.Machine(); m != nil {
			// Processor j computes gamma[j] in O(1), then a tournament tree
			// finds the minimum (Lemma 3.3). Cells at or above hi stay Inf.
			st.ch.Par(1, st.J)
			gamma := st.gammaScratch()
			for j := range gamma[:st.hi] {
				if hasBit(memb2, j) {
					gamma[j] = cadj1[j]
				} else {
					gamma[j] = Inf
				}
			}
			bestID, best = tourney.MinReduce(m, gamma, Inf)
			if best == Inf {
				bestID = -1
			}
		} else {
			for w := 0; w < (st.hi+63)/64; w++ {
				word := memb2[w]
				for word != 0 {
					j := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					if v := cadj1[j]; v < best {
						best, bestID = v, j
					}
				}
			}
		}
	}
	if bestID < 0 {
		return nil
	}
	hat := st.chunks[bestID]
	if hat == nil {
		panic("core: gamma pointed at a free chunk id")
	}
	e := st.scanChunkForMWR(hat, t1)
	if e == nil || e.W != best {
		panic("core: MWR scan disagrees with gamma minimum")
	}
	return e
}

// scanChunkForMWR scans hat's charged edges for the lightest one whose far
// endpoint lies in the other tour (the verified-candidate scan of Lemmas
// 2.4 / 3.3), filtering inline during the charged-edge walk: the earliest
// strictly-minimal candidate wins.
func (st *Store) scanChunkForMWR(hat *Chunk, other *Tour) *graph.Edge {
	ec := hat.edgeCount()
	st.ch.Par(btHeight(hat)+3, ec) // getEdge assignment
	st.ch.Par(log2ceil(st.K+1), ec)
	st.ch.Climb(ec + 1)
	var found *graph.Edge
	st.forEachChargedEdge(hat, func(cp *Copy, e *graph.Edge) {
		oc := st.otherChunk(e, cp.v)
		if !st.chunkInTour(oc, other) {
			return
		}
		if found == nil || e.W < found.W {
			found = e
		}
	})
	return found
}

// chunkInTour reports whether chunk oc belongs to tour t. Registered chunks
// use the O(1) root Memb test; unregistered chunks can only be the single
// chunk of a short tour.
func (st *Store) chunkInTour(oc *Chunk, t *Tour) bool {
	if oc.id >= 0 {
		return tourHasChunkID(t, oc.id)
	}
	return t.root.IsLeaf() && lsItem(t.root) == oc
}

// mwrScanShort handles the Section 6 case: scan every principal copy of the
// short tour's single chunk directly (O(K) sequentially; a tournament over
// O(K) processors in parallel).
func (st *Store) mwrScanShort(short, other *Tour) *graph.Edge {
	hat := lsItem(short.root)
	if !short.root.IsLeaf() {
		panic("core: mwrScanShort on non-short tour")
	}
	return st.scanChunkForMWR(hat, other)
}

// gammaScratch returns a reusable J-sized scratch slice, created at Inf.
func (st *Store) gammaScratch() []Weight {
	if st.gamma == nil {
		st.gamma = make([]Weight, st.J)
		fillInf(st.gamma)
	}
	return st.gamma
}

// verifyTourMatchesCycle is a debug helper used by the checker: it walks
// the cyclic copy order from the first copy of the first chunk and checks
// it visits exactly the leaves of the tour's chunks in order.
func (st *Store) verifyTourMatchesCycle(t *Tour) bool {
	var seq []*Copy
	seqtree.Leaves(t.root, func(l *lsNode) bool {
		seqtree.Leaves(lsItem(l).bt, func(b *btNode) bool {
			seq = append(seq, btItem(b))
			return true
		})
		return true
	})
	if len(seq) == 0 {
		return false
	}
	cur := seq[0]
	for i := 0; i < len(seq); i++ {
		if cur != seq[i] {
			return false
		}
		cur = cur.next
	}
	return cur == seq[0]
}
