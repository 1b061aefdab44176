package core

import (
	"testing"

	"parmsf/internal/batch"
	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

// TestImplicitVertices drives engines over 512 vertices whose edges touch
// only a few dozen of them, so most vertices stay implicit, and checks the
// readers that can meet an implicit vertex against references:
// ExportComponents against a union-find over the live edges numbered in
// first-occurrence order, on the whole vertex range and on a prefix, and
// SameTour against the link-cut forest's Connected. Exactly the endpoints
// of planned insertions gain state, and keep it after losing their edges.
// It runs on the incremental path under both chargers, and on BulkLoad.
func TestImplicitVertices(t *testing.T) {
	const n = 512
	for _, tc := range []struct {
		name string
		ch   Charger
		bulk bool
	}{
		{"seq", SeqCharger{}, false},
		{"pram", PRAMCharger{M: pram.New(false)}, false},
		{"bulk", SeqCharger{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMSF(n, Config{K: 8}, tc.ch)
			st := m.Store()
			rng := xrand.New(7)
			pick := func() int { return 3 + 7*rng.Intn(64) } // 64 of 512 vertices
			touched := make([]bool, n)
			seen := map[[2]int]bool{}
			var ops []BatchOp
			for tries := 0; len(ops) < 60 && tries < 10000; tries++ {
				u, v := pick(), pick()
				if u > v {
					u, v = v, u
				}
				if u == v || seen[[2]int{u, v}] {
					continue
				}
				seen[[2]int{u, v}] = true
				op := BatchOp{U: u, V: v, W: Weight(1 + rng.Intn(50))}
				if tc.bulk {
					ops = append(ops, op)
					continue
				}
				touched[u], touched[v] = true, true
				if err := m.InsertEdge(u, v, op.W); err == nil {
					ops = append(ops, op)
				}
			}
			if len(ops) < 40 {
				t.Fatalf("fixture inserted only %d edges", len(ops))
			}
			if tc.bulk {
				ops = bulkLoadable(ops)
				// An edge inserted and deleted first leaves its endpoints
				// with state in an edge-empty engine.
				mustIns(t, m, ops[0].U, ops[0].V, ops[0].W)
				if err := m.DeleteEdge(ops[0].U, ops[0].V); err != nil {
					t.Fatal(err)
				}
				flags := classifyMSF(n, ops)
				for i, err := range m.BulkLoad(ops, flags) {
					if err != nil {
						t.Fatalf("BulkLoad op %d: %v", i, err)
					}
				}
				for _, op := range ops {
					touched[op.U], touched[op.V] = true, true
				}
			}
			// Strand a few vertices: they keep their state.
			for _, op := range ops[:10] {
				if err := m.DeleteEdge(op.U, op.V); err != nil {
					t.Fatal(err)
				}
			}
			checkAll(t, m)

			implicit := 0
			for v, cp := range st.pcs {
				if (cp != nil) != touched[v] {
					t.Fatalf("vertex %d: state %v, endpoint of an insertion %v", v, cp != nil, touched[v])
				}
				if cp == nil {
					implicit++
				}
			}
			if implicit < n*3/4 {
				t.Fatalf("only %d of %d vertices implicit; the fixture should leave most untouched", implicit, n)
			}

			var uf batch.UF
			uf.Reset(n)
			st.g.Edges(func(id int32) bool {
				u, v := st.g.Ends(id)
				uf.Union(int(u), int(v))
				return true
			})
			for _, upto := range []int{n, n / 3} {
				got := make([]int32, n)
				m.ExportComponents(got, upto)
				dense := map[int]int32{}
				for v := 0; v < upto; v++ {
					r := uf.Find(v)
					id, ok := dense[r]
					if !ok {
						id = int32(len(dense))
						dense[r] = id
					}
					if got[v] != id {
						t.Fatalf("upto=%d: comp[%d] = %d, want %d", upto, v, got[v], id)
					}
				}
			}
			for u := 0; u < n; u += 7 {
				for v := 0; v < n; v += 5 {
					if st.SameTour(u, v) != m.Connected(u, v) {
						t.Fatalf("SameTour(%d,%d) = %v, Connected %v", u, v, st.SameTour(u, v), m.Connected(u, v))
					}
				}
			}
		})
	}
}

// bulkLoadable keeps the ops that respect the degree bound of 3, as
// BulkLoad's callers guarantee.
func bulkLoadable(ops []BatchOp) []BatchOp {
	deg := map[int]int{}
	var out []BatchOp
	for _, op := range ops {
		if deg[op.U] < 3 && deg[op.V] < 3 {
			deg[op.U]++
			deg[op.V]++
			out = append(out, op)
		}
	}
	return out
}
