package core

import (
	"sort"
	"testing"

	"parmsf/internal/graph"
	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

// genBounded returns a random simple edge set over n vertices respecting
// the engine's degree bound 3. tieSpan == 0 gives pairwise-distinct
// weights; otherwise weights are drawn from [0, tieSpan) with many ties.
func genBounded(rng *xrand.RNG, n, m, tieSpan int) []BatchOp {
	deg := make([]int, n)
	seen := map[[2]int]bool{}
	var ops []BatchOp
	for tries := 0; len(ops) < m && tries < 50*m; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || deg[u] >= 3 || deg[v] >= 3 {
			continue
		}
		k := [2]int{u, v}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		deg[u]++
		deg[v]++
		var w Weight
		if tieSpan == 0 {
			w = Weight(len(ops)*7 + 1)
		} else {
			w = Weight(rng.Intn(tieSpan))
		}
		ops = append(ops, BatchOp{U: u, V: v, W: w})
	}
	return ops
}

// classifyMSF marks the minimum spanning forest of ops under the
// (W, U, V, index) total order — the same tie-break the engine's batch
// paths use — via a host Kruskal sweep.
func classifyMSF(n int, ops []BatchOp) []bool {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := ops[idx[a]], ops[idx[b]]
		if x.W != y.W {
			return x.W < y.W
		}
		if x.U != y.U {
			return x.U < y.U
		}
		if x.V != y.V {
			return x.V < y.V
		}
		return idx[a] < idx[b]
	})
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tree := make([]bool, len(ops))
	for _, i := range idx {
		ru, rv := find(ops[i].U), find(ops[i].V)
		if ru != rv {
			parent[ru] = rv
			tree[i] = true
		}
	}
	return tree
}

// sortedByRank returns ops reordered ascending under (W, U, V, index), the
// order an incremental replay of a sorted batch applies them in.
func sortedByRank(ops []BatchOp) []BatchOp {
	out := append([]BatchOp(nil), ops...)
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.W != y.W {
			return x.W < y.W
		}
		if x.U != y.U {
			return x.U < y.U
		}
		return x.V < y.V
	})
	return out
}

// TestBulkLoadInvariants loads random classified sets and checks the full
// structural invariant suite plus the Kruskal ground truth, then keeps
// churning incrementally on top of the loaded state.
func TestBulkLoadInvariants(t *testing.T) {
	for _, n := range []int{8, 24, 64, 200} {
		n := n
		t.Run(sizeName(n), func(t *testing.T) {
			rng := xrand.New(uint64(4000 + n))
			ops := genBounded(rng, n, n*5/4, 0)
			m := NewMSF(n, Config{}, SeqCharger{})
			for i, err := range m.BulkLoad(ops, classifyMSF(n, ops)) {
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			checkAll(t, m)

			// The loaded state must behave as any other engine state under
			// further incremental updates.
			type pair struct{ u, v int }
			var live []pair
			for _, op := range ops {
				live = append(live, pair{op.U, op.V})
			}
			nextW := Weight(1 << 20)
			for step := 0; step < 120; step++ {
				if rng.Intn(5) < 2 || len(live) == 0 {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					err := m.InsertEdge(u, v, nextW)
					nextW++
					if err == graph.ErrDegree || err == graph.ErrExists {
						continue
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					live = append(live, pair{u, v})
				} else {
					i := rng.Intn(len(live))
					p := live[i]
					if err := m.DeleteEdge(p.u, p.v); err != nil {
						t.Fatalf("step %d: delete(%d,%d): %v", step, p.u, p.v, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				checkAll(t, m)
			}
		})
	}
}

// TestBulkLoadMatchesIncremental compares a bulk load against an
// incremental twin replaying the same edges in ascending rank order: the
// forests must be identical edge for edge, including under heavy ties.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tieSpan int
	}{{"distinct", 0}, {"ties", 4}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{12, 48, 160} {
				rng := xrand.New(uint64(6000 + n + tc.tieSpan))
				ops := genBounded(rng, n, n*5/4, tc.tieSpan)

				bulk := NewMSF(n, Config{}, SeqCharger{})
				for i, err := range bulk.BulkLoad(ops, classifyMSF(n, ops)) {
					if err != nil {
						t.Fatalf("n=%d op %d: %v", n, i, err)
					}
				}

				inc := NewMSF(n, Config{}, SeqCharger{})
				for _, op := range sortedByRank(ops) {
					if err := inc.InsertEdge(op.U, op.V, op.W); err != nil {
						t.Fatalf("n=%d incremental insert: %v", n, err)
					}
				}

				if bulk.Weight() != inc.Weight() || bulk.ForestSize() != inc.ForestSize() {
					t.Fatalf("n=%d bulk (w=%d,n=%d) vs incremental (w=%d,n=%d)",
						n, bulk.Weight(), bulk.ForestSize(), inc.Weight(), inc.ForestSize())
				}
				bf, incf := forestEdgeSet(bulk), forestEdgeSet(inc)
				if len(bf) != len(incf) {
					t.Fatalf("n=%d forest size mismatch", n)
				}
				for i := range bf {
					if bf[i] != incf[i] {
						t.Fatalf("n=%d forest edge %d: bulk %v vs incremental %v", n, i, bf[i], incf[i])
					}
				}
				checkAll(t, bulk)
			}
		})
	}
}

// TestBulkLoadEdgeCases covers the degenerate shapes: empty set, a single
// edge, a path (one long tour), and a star-of-paths with every vertex at
// the degree bound.
func TestBulkLoadEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		m := NewMSF(5, Config{}, SeqCharger{})
		if errs := m.BulkLoad(nil, nil); len(errs) != 0 {
			t.Fatalf("want empty errs, got %d", len(errs))
		}
		checkAll(t, m)
	})
	t.Run("single", func(t *testing.T) {
		m := NewMSF(4, Config{}, SeqCharger{})
		ops := []BatchOp{{U: 1, V: 3, W: 7}}
		for _, err := range m.BulkLoad(ops, []bool{true}) {
			if err != nil {
				t.Fatal(err)
			}
		}
		checkAll(t, m)
		if m.Weight() != 7 || m.ForestSize() != 1 {
			t.Fatalf("got w=%d size=%d", m.Weight(), m.ForestSize())
		}
	})
	t.Run("path", func(t *testing.T) {
		const n = 300
		m := NewMSF(n, Config{}, SeqCharger{})
		var ops []BatchOp
		tree := make([]bool, 0, n-1)
		for v := 0; v+1 < n; v++ {
			ops = append(ops, BatchOp{U: v, V: v + 1, W: Weight(v + 1)})
			tree = append(tree, true)
		}
		for i, err := range m.BulkLoad(ops, tree) {
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		checkAll(t, m)
		if m.ForestSize() != n-1 {
			t.Fatalf("got size=%d", m.ForestSize())
		}
	})
	t.Run("cycles", func(t *testing.T) {
		// Disjoint triangles: every component carries one non-tree edge.
		const k = 40
		n := 3 * k
		m := NewMSF(n, Config{}, SeqCharger{})
		var ops []BatchOp
		for c := 0; c < k; c++ {
			a, b, d := 3*c, 3*c+1, 3*c+2
			ops = append(ops,
				BatchOp{U: a, V: b, W: Weight(10*c + 1)},
				BatchOp{U: b, V: d, W: Weight(10*c + 2)},
				BatchOp{U: d, V: a, W: Weight(10*c + 3)})
		}
		for i, err := range m.BulkLoad(ops, classifyMSF(n, ops)) {
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		checkAll(t, m)
		if m.ForestSize() != 2*k {
			t.Fatalf("got size=%d, want %d", m.ForestSize(), 2*k)
		}
	})
}

// TestBulkLoadParallelCharger runs the loader under the PRAM charger: same
// forest, and the cost counters must match the sequential ones only in
// being deterministic — rerunning yields identical depth/work.
func TestBulkLoadParallelCharger(t *testing.T) {
	const n = 120
	rng := xrand.New(9001)
	ops := genBounded(rng, n, n*5/4, 0)
	tree := classifyMSF(n, ops)

	run := func() (*MSF, int64, int64) {
		mach := pram.New(false)
		m := NewMSF(n, Config{}, PRAMCharger{M: mach})
		for i, err := range m.BulkLoad(ops, tree) {
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		return m, mach.Time, mach.Work
	}
	m1, d1, w1 := run()
	m2, d2, w2 := run()
	checkAll(t, m1)
	if d1 != d2 || w1 != w2 {
		t.Fatalf("PRAM counters not deterministic: (%d,%d) vs (%d,%d)", d1, w1, d2, w2)
	}
	f1, f2 := forestEdgeSet(m1), forestEdgeSet(m2)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("forest differs between runs at %d", i)
		}
	}
}
