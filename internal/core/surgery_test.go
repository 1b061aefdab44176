package core

import "testing"

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
			if e := m.Graph().Find(x, y); e == nil || e.Tree {
				t.Fatal("(x, y) should remain as a non-tree edge")
			}
		})
	}
}
