package core

import (
	"testing"

	"parmsf/internal/seqtree"
)

// leafSurgeryFixture builds a K=8 core whose vertices 0..p-1 form a path
// with weights 100.. (one registered multi-chunk tour) and whose vertex p
// is isolated. It returns the engine plus two path vertices y, z of degree
// 2 in different chunks, each with room for the test's surgery without a
// size split.
func leafSurgeryFixture(t *testing.T) (m *MSF, x, y, z int) {
	t.Helper()
	const p = 40
	m = NewMSF(p+1, Config{K: 8}, SeqCharger{})
	for i := 0; i+1 < p; i++ {
		if err := m.InsertEdge(i, i+1, Weight(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	checkAll(t, m)
	st := m.Store()
	y, z = -1, -1
	for v := 1; v+1 < p; v++ {
		c := st.pcs[v].chunk
		if c.id < 0 || c.nc() > 3*st.K-6 || st.tourOf(c).Chunks() < 2 {
			continue
		}
		switch {
		case y < 0:
			y = v
		case z < 0 && c != st.pcs[y].chunk:
			z = v
		}
	}
	if y < 0 || z < 0 {
		t.Fatalf("no path vertices with chunk room (y=%d z=%d)", y, z)
	}
	return m, p, y, z
}

// TestLeafLocalSurgery pins the leaf-local surgery paths: linking an
// isolated vertex into a registered multi-chunk tour and cutting a leaf off
// again split no chunk and rebuild no row, in both endpoint orientations;
// a cycle swap that strands a leaf still holding a non-tree edge cuts and
// relinks it without a split, rebuilding only the row its charges left.
func TestLeafLocalSurgery(t *testing.T) {
	for _, xFirst := range []bool{true, false} {
		name := "x=V"
		if xFirst {
			name = "x=U"
		}
		t.Run(name, func(t *testing.T) {
			m, x, y, z := leafSurgeryFixture(t)
			st := m.Store()
			ends := func(a, b int) (int, int) {
				if xFirst {
					return a, b
				}
				return b, a
			}
			step := func(what string, links, cuts, rebuilds int64, op func() error) {
				t.Helper()
				before := st.Stats()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkAll(t, m)
				after := st.Stats()
				if d := after.TourLinks - before.TourLinks; d != links {
					t.Errorf("%s: TourLinks +%d, want +%d", what, d, links)
				}
				if d := after.TourCuts - before.TourCuts; d != cuts {
					t.Errorf("%s: TourCuts +%d, want +%d", what, d, cuts)
				}
				if d := after.ChunkSplits - before.ChunkSplits; d != 0 {
					t.Errorf("%s: %d chunk splits, want 0", what, d)
				}
				if d := after.RowRebuilds - before.RowRebuilds; d != rebuilds {
					t.Errorf("%s: %d row rebuilds, want %d", what, d, rebuilds)
				}
			}

			// Isolated link, then the cut of a degree-0 leaf. The link edge
			// is the lightest in the graph, so CheckInvariants sees it in
			// the host chunk's diagonal CAdj entry.
			u, v := ends(x, y)
			step("link isolated", 1, 0, 0, func() error { return m.InsertEdge(u, v, 1) })
			if st.pcs[x].chunk != st.pcs[y].chunk {
				t.Fatal("isolated vertex not placed in its neighbor's chunk")
			}
			step("cut degree-0 leaf", 0, 1, 0, func() error { return m.DeleteEdge(u, v) })

			// Relink heavily, then a lighter (x, z) evicts (x, y) from the
			// cycle: x is cut off while keeping (x, y) as a non-tree edge,
			// which costs its old chunk one row rebuild (the row still held
			// the lightest entry, from (x, z)), and relinked at z.
			step("relink isolated", 1, 0, 0, func() error { return m.InsertEdge(u, v, 1000) })
			a, b := ends(x, z)
			step("cycle swap", 1, 1, 1, func() error { return m.InsertEdge(a, b, 2) })
			if e := m.Graph().Find(x, y); e < 0 || m.st.isTree(e) {
				t.Fatal("(x, y) should remain as a non-tree edge")
			}
		})
	}
}

// spliceFixture builds a K=8 core holding one tree of weight-w edges: a
// comb whose spine 0..s-1 carries the pendant path i–p–q at every spine
// vertex i, with the last pendant continued by a path of tail vertices.
// Pendant middles, the path and both spine ends have degree 2; interior
// spine vertices have degree 3. The tour spans several registered chunks.
func spliceFixture(t *testing.T, w Weight) *MSF {
	t.Helper()
	const s, tail = 12, 16
	m := NewMSF(3*s+tail, Config{K: 8}, SeqCharger{})
	link := func(u, v int) {
		if err := m.InsertEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < s; i++ {
		link(i, s+2*i)
		link(s+2*i, s+2*i+1)
		if i > 0 {
			link(i-1, i)
		}
	}
	for v := 3 * s; v < 3*s+tail; v++ {
		link(v-1, v)
	}
	checkAll(t, m)
	return m
}

// TestSplice pins the splice surgery: replacing the forest path a–h–b
// through degree-2 vertex h by the edge (a, b) of the same weight splits no
// chunk and runs no replacement search, whether h's two copies share a
// chunk, straddle a chunk boundary, or a, h and b have three different
// principal chunks; the forest loses one edge of weight w, a and b stay
// connected and h ends alone in its tour. Splicing a degree-3 vertex
// panics.
func TestSplice(t *testing.T) {
	const w = 7
	type triple struct{ a, h, b int }
	// candidates lists every degree-2 vertex h of m with its neighbors.
	candidates := func(m *MSF) []triple {
		var out []triple
		g := m.Graph()
		for h := 0; h < g.N(); h++ {
			if g.Degree(h) != 2 {
				continue
			}
			nb := g.Adj(int32(h))
			out = append(out, triple{int(nb[0].To), h, int(nb[1].To)})
		}
		return out
	}
	cases := []struct {
		name string
		pick func(st *Store, c triple) bool
	}{
		{"copies in one chunk", func(st *Store, c triple) bool {
			hp := st.pcs[c.h]
			return hp.chunk == hp.ringNext.chunk && hp.chunk.id >= 0
		}},
		{"copies straddle a boundary", func(st *Store, c triple) bool {
			c1, c2 := st.pcs[c.h].chunk, st.pcs[c.h].ringNext.chunk
			adjacent := seqtree.Next(c1.leaf) == c2.leaf || seqtree.Next(c2.leaf) == c1.leaf
			return adjacent && (st.pcs[c.a].chunk == c1 || st.pcs[c.b].chunk == c1)
		}},
		{"three principal chunks", func(st *Store, c triple) bool {
			pa, ph, pb := st.pcs[c.a].chunk, st.pcs[c.h].chunk, st.pcs[c.b].chunk
			return pa != ph && ph != pb && pa != pb
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := spliceFixture(t, w)
			st := m.Store()
			c := triple{-1, -1, -1}
			for _, cand := range candidates(m) {
				if tc.pick(st, cand) {
					c = cand
					break
				}
			}
			if c.h < 0 {
				t.Fatal("fixture has no splice of this shape")
			}
			before, weight, size := st.Stats(), m.Weight(), m.ForestSize()
			op := BatchOp{Splice: true, U: c.a, V: c.b, H: int32(c.h), W: w}
			if err := m.ApplyBatch([]BatchOp{op})[0]; err != nil {
				t.Fatal(err)
			}
			checkAll(t, m)
			after := st.Stats()
			if after.ChunkSplits != before.ChunkSplits || after.MWRQueries != before.MWRQueries {
				t.Errorf("splits +%d, MWR queries +%d; want none",
					after.ChunkSplits-before.ChunkSplits, after.MWRQueries-before.MWRQueries)
			}
			if m.Weight() != weight-w || m.ForestSize() != size-1 {
				t.Errorf("forest (w=%d, n=%d), want (%d, %d)", m.Weight(), m.ForestSize(), weight-w, size-1)
			}
			if !m.Connected(c.a, c.b) {
				t.Error("a and b disconnected")
			}
			hp := st.pcs[c.h]
			if tr := st.tourOf(hp.chunk); hp.next != hp || !tr.root.IsLeaf() || hp.chunk.size() != 1 {
				t.Error("h not alone in its tour")
			}
		})
	}

	t.Run("degree 3 panics", func(t *testing.T) {
		m := spliceFixture(t, w)
		defer func() {
			if recover() == nil {
				t.Fatal("splice of a degree-3 vertex did not panic")
			}
		}()
		m.ApplyBatch([]BatchOp{{Splice: true, U: 0, V: 2, H: 1, W: w}})
	})
}
