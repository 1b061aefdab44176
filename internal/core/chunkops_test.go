package core

import (
	"testing"

	"parmsf/internal/seqtree"
)

// pathFixture builds a K=8 core whose p vertices form a path with weights
// 100.., one registered multi-chunk tour.
func pathFixture(t *testing.T, p int) *MSF {
	t.Helper()
	m := NewMSF(p, Config{K: 8}, SeqCharger{})
	for i := 0; i+1 < p; i++ {
		mustIns(t, m, i, i+1, Weight(100+i))
	}
	checkAll(t, m)
	return m
}

// chunkCopies returns c's copies in tour order.
func chunkCopies(c *Chunk) []*Copy {
	var cps []*Copy
	seqtree.Leaves(c.bt, func(b *btNode) bool {
		cps = append(cps, btItem(b))
		return true
	})
	return cps
}

// TestSplitMergeRelabelSmaller pins the smaller-piece rule. A split of a
// registered chunk near either end relabels only the smaller piece, and the
// chunk object, id and LSDS leaf stay with the larger one. Merging the two
// pieces back relabels the smaller piece again, and the survivor is the
// larger chunk with its id. The structure must stay valid throughout.
func TestSplitMergeRelabelSmaller(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(cps []*Copy) *Copy // the copy that becomes a chunk head
	}{
		{"small-left", func(cps []*Copy) *Copy { return cps[1] }},
		{"small-right", func(cps []*Copy) *Copy { return cps[len(cps)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := pathFixture(t, 40)
			st := m.Store()
			var c *Chunk
			for _, id := range []int{0, 1, 2} {
				if ch := st.chunks[id]; ch != nil && ch.size() >= 5 {
					c = ch
					break
				}
			}
			if c == nil {
				t.Fatal("fixture has no registered chunk of 5 or more copies")
			}
			cps := chunkCopies(c)
			size, id, leaf := c.size(), c.id, c.leaf

			before := st.Stats().Relabels
			left, right := st.ensureBoundaryBefore(tc.at(cps))
			small, large := left, right
			if left.size() > right.size() {
				small, large = right, left
			}
			if got := st.Stats().Relabels - before; got != int64(small.size()) || small.size() != 1 {
				t.Fatalf("split relabelled %d copies; pieces hold %d and %d", got, left.size(), right.size())
			}
			if large != c || c.id != id || c.leaf != leaf || left.size()+right.size() != size {
				t.Fatal("the larger piece did not keep the chunk, its id and its LSDS leaf")
			}
			if small.id < 0 || seqtree.Next(left.leaf) != right.leaf {
				t.Fatal("the smaller piece is not a registered chunk beside the larger one")
			}

			before = st.Stats().Relabels
			sv := st.mergeInto(left, right)
			if got := st.Stats().Relabels - before; got != 1 {
				t.Fatalf("merge relabelled %d copies, want the smaller piece's 1", got)
			}
			if sv != c || c.id != id || c.size() != size || small.bt != nil {
				t.Fatal("the merge did not keep the larger chunk")
			}
			st.normQ = append(st.normQ, sv)
			st.normalize()
			checkAll(t, m)
		})
	}
}

// TestRetiredPrincipalKeepsPCID covers deleteCopy's principal hand-off when
// the deleted copy was alone in a registered chunk. The retired copy keeps
// its principal flag while the emptied chunk is unregistered, so the walk
// that clears the chunk's vertices from pcid must skip it: the vertex's
// pcid must name the chunk of its new principal copy.
func TestRetiredPrincipalKeepsPCID(t *testing.T) {
	m := pathFixture(t, 40)
	st := m.Store()
	for v := 1; v+1 < st.n; v++ {
		p := st.pcs[v]
		np := p.ringNext
		if np == p || p.chunk.id < 0 || p.next.chunk != p.chunk {
			continue
		}
		// Isolate p into a chunk of its own; it inherits the registration.
		st.ensureBoundaryBefore(p)
		st.ensureBoundaryBefore(p.next)
		if p.chunk.size() != 1 || p.chunk.id < 0 || np.chunk.id < 0 {
			t.Fatalf("vertex %d: p is not alone in a registered chunk", v)
		}
		st.deleteCopy(p)
		if st.pcs[v] != np || !p.principal {
			t.Fatalf("vertex %d: principal hand-off did not happen as expected", v)
		}
		if st.pcid[v] != np.chunk.id {
			t.Fatalf("vertex %d: pcid %d, new principal's chunk id %d", v, st.pcid[v], np.chunk.id)
		}
		return
	}
	t.Fatal("no interior path vertex with its principal copy inside a registered chunk")
}

// TestCutBoundariesInOneChunk cuts a two-vertex pendant x–y off a path
// vertex h when the whole pendant segment and h's next copy share one
// chunk, with more copies after h than in the segment: the second boundary
// split then relabels the segment, which holds the first boundary's head,
// into a new chunk. The cut must read both heads' chunks after both splits.
func TestCutBoundariesInOneChunk(t *testing.T) {
	const p = 40
	x, y := p, p+1
	for h := 2; h+2 < p; h++ {
		m := NewMSF(p+2, Config{K: 8}, SeqCharger{})
		for i := 0; i+1 < p; i++ {
			mustIns(t, m, i, i+1, Weight(100+i))
		}
		mustIns(t, m, h, x, 10)
		mustIns(t, m, x, y, 11)
		checkAll(t, m)
		st := m.Store()
		e := st.g.Find(h, x)
		a := st.occU[e]
		b, c := a.next, st.occV[e]
		d := c.next
		ck := b.chunk
		after := 0
		for cp := d; cp.chunk == ck; cp = cp.next {
			after++
		}
		if b == btItem(seqtree.First(ck.bt)) || d.chunk != ck || c.chunk != ck || after <= 3 {
			continue
		}
		splits := st.Stats().ChunkSplits
		if err := m.DeleteEdge(h, x); err != nil {
			t.Fatal(err)
		}
		if st.Stats().ChunkSplits-splits < 2 {
			t.Fatalf("h=%d: the cut split %d chunks, want 2", h, st.Stats().ChunkSplits-splits)
		}
		checkAll(t, m)
		return
	}
	t.Fatal("no path vertex whose chunk holds the whole pendant segment with room after it")
}

// TestLinkSplitLeftPieces links two K=8 paths at vertices one copy past
// a chunk head, so each endpoint's chunk splits into a one-copy left piece,
// which is relabelled into a new chunk. normalize must see those pieces and
// merge them away (Invariant 1).
func TestLinkSplitLeftPieces(t *testing.T) {
	const p = 40
	m := NewMSF(2*p, Config{K: 8}, SeqCharger{})
	for i := 0; i+1 < p; i++ {
		mustIns(t, m, i, i+1, Weight(100+i))
		mustIns(t, m, p+i, p+i+1, Weight(200+i))
	}
	checkAll(t, m)
	st := m.Store()
	// pick returns a degree-2 vertex of [lo, lo+p) whose principal copy is
	// the second copy of a chunk holding at least four copies.
	pick := func(lo int) int {
		for v := lo + 1; v+1 < lo+p; v++ {
			cp := st.pcs[v]
			if cp.prev.chunk == cp.chunk && btItem(seqtree.First(cp.chunk.bt)) == cp.prev && cp.chunk.size() >= 4 {
				return v
			}
		}
		t.Fatalf("no vertex in [%d, %d) one copy past a chunk head", lo, lo+p)
		return -1
	}
	u, v := pick(0), pick(p)
	cu, cv := st.pcs[u].chunk, st.pcs[v].chunk
	splits := st.Stats().ChunkSplits
	mustIns(t, m, u, v, 1)
	if st.Stats().ChunkSplits-splits < 2 {
		t.Fatalf("the link split %d chunks, want 2", st.Stats().ChunkSplits-splits)
	}
	if cu.bt == nil || cv.bt == nil {
		t.Fatal("an endpoint's chunk did not survive as the larger piece")
	}
	checkAll(t, m)
}
