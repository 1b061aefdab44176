package sparsify

import (
	"slices"
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/batch"
	"parmsf/internal/xrand"
)

// forestView is the read side the comparisons need: a sparsification tree
// or a flat Kruskal reference.
type forestView interface {
	Weight() int64
	ForestSize() int
	ForestEdges(f func(u, v int, w int64) bool)
}

// snapshot collects a forest's edge set for equality checks.
func snapshot(e forestView) map[[3]int64]bool {
	s := make(map[[3]int64]bool)
	e.ForestEdges(func(u, v int, w int64) bool {
		if u > v {
			u, v = v, u
		}
		s[[3]int64{int64(u), int64(v), w}] = true
		return true
	})
	return s
}

func sameForests(t *testing.T, label string, a, b forestView) {
	t.Helper()
	if a.Weight() != b.Weight() || a.ForestSize() != b.ForestSize() {
		t.Fatalf("%s: (w=%d,s=%d) vs (w=%d,s=%d)",
			label, a.Weight(), a.ForestSize(), b.Weight(), b.ForestSize())
	}
	sa, sb := snapshot(a), snapshot(b)
	for e := range sa {
		if !sb[e] {
			t.Fatalf("%s: edge %v only in first forest", label, e)
		}
	}
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d forest edges", label, len(sa), len(sb))
	}
}

// TestBatchMatchesPerEdge drives identical random mixed batches through the
// sparsify batch path whole, one edge at a time (InsertEdge/DeleteEdge,
// one-item batches), and through a flat Kruskal engine, requiring
// identical forests and weights throughout, on core-backed and
// kruskal-backed nodes.
func TestBatchMatchesPerEdge(t *testing.T) {
	for name, fac := range map[string]Factory{"core": coreFactory, "kruskal": kruskalFactory} {
		fac := fac
		t.Run(name, func(t *testing.T) {
			const n = 24
			bat := New(n, fac)
			one := New(n, fac)
			ref := baseline.NewKruskal(n)
			rng := xrand.New(424242)
			var live [][2]int
			nextW := int64(1)
			for round := 0; round < 12; round++ {
				var ins []batch.Edge
				seen := map[[2]int]bool{}
				for len(ins) < 16 {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					k := key(u, v)
					if seen[k] {
						continue
					}
					seen[k] = true
					ins = append(ins, batch.Edge{U: u, V: v, W: nextW})
					nextW++
				}
				// Error paths: a self loop and an in-batch duplicate.
				ins = append(ins, batch.Edge{U: 3, V: 3, W: nextW}, batch.Edge{U: ins[0].U, V: ins[0].V, W: nextW + 1})
				nextW += 2
				errs := bat.InsertEdges(ins)
				for i, it := range ins {
					var want error
					switch {
					case it.U == it.V:
						want = ErrBadEdge
					default:
						if e := one.InsertEdge(it.U, it.V, it.W); e != nil {
							want = e
						} else {
							ref.InsertEdge(it.U, it.V, it.W)
							live = append(live, key(it.U, it.V))
						}
					}
					if errs[i] != want {
						t.Fatalf("round %d: ins errs[%d] = %v, want %v", round, i, errs[i], want)
					}
				}
				sameForests(t, "after insert (batch vs per-edge)", bat, one)
				sameForests(t, "after insert (batch vs kruskal)", bat, ref)
				if err := bat.CheckInvariant(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}

				var del [][2]int
				for i := 0; i < 8 && len(live) > 0; i++ {
					j := rng.Intn(len(live))
					del = append(del, live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				// Error paths: an in-batch duplicate (fails on its second
				// occurrence) after the live deletions.
				del = append(del, del[0])
				derrs := bat.DeleteEdges(del)
				for i, k := range del {
					want := error(nil)
					if i == len(del)-1 {
						want = ErrMissing
					} else {
						if e := one.DeleteEdge(k[0], k[1]); e != nil {
							t.Fatalf("round %d: per-edge delete %v: %v", round, k, e)
						}
						ref.DeleteEdge(k[0], k[1])
					}
					if derrs[i] != want {
						t.Fatalf("round %d: del errs[%d] (%v) = %v, want %v", round, i, k, derrs[i], want)
					}
				}
				sameForests(t, "after delete (batch vs per-edge)", bat, one)
				sameForests(t, "after delete (batch vs kruskal)", bat, ref)
				if err := bat.CheckInvariant(); err != nil {
					t.Fatalf("round %d after delete: %v", round, err)
				}
			}
			if bat.BatchNodeOps == 0 {
				t.Fatal("batch path never applied a node batch")
			}
		})
	}
}

// TestBatchTeardownOrdering is the regression test for node teardown under
// batches: one delete batch empties an entire subtree — every emptied node
// must flush its forest-delta events to its parent before it is destroyed,
// or the upper levels keep phantom edges — and a follow-up insert batch
// repopulates the same subtree through freshly recreated nodes.
func TestBatchTeardownOrdering(t *testing.T) {
	const n = 16
	f := New(n, coreFactory)
	ref := baseline.NewKruskal(n)
	// A clique on vertices 0..3 (one subtree of the tree) plus a few
	// spanning edges elsewhere.
	var sub [][2]int
	w := int64(1)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			sub = append(sub, [2]int{u, v})
			mustNil(t, f.InsertEdge(u, v, w))
			ref.InsertEdge(u, v, w)
			w++
		}
	}
	for _, e := range [][2]int{{4, 8}, {8, 12}, {12, 15}, {0, 8}} {
		mustNil(t, f.InsertEdge(e[0], e[1], w))
		ref.InsertEdge(e[0], e[1], w)
		w++
	}
	nodesBefore := f.NodeCount()

	// Empty the whole 0..3 subtree in ONE batch.
	if errs := f.DeleteEdges(sub); errs != nil {
		for i, e := range errs {
			if e != nil {
				t.Fatalf("delete errs[%d] = %v", i, e)
			}
		}
	}
	for _, k := range sub {
		ref.DeleteEdge(k[0], k[1])
	}
	if f.Weight() != ref.Weight() || f.ForestSize() != ref.ForestSize() {
		t.Fatalf("after subtree teardown: (w=%d,s=%d) vs ref (w=%d,s=%d)",
			f.Weight(), f.ForestSize(), ref.Weight(), ref.ForestSize())
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatalf("invariant after teardown: %v", err)
	}
	if f.NodeCount() >= nodesBefore {
		t.Fatalf("no nodes were destroyed: %d -> %d", nodesBefore, f.NodeCount())
	}

	// Repopulate the subtree in one batch through recreated nodes.
	var ins []batch.Edge
	for _, k := range sub {
		ins = append(ins, batch.Edge{U: k[0], V: k[1], W: w})
		ref.InsertEdge(k[0], k[1], w)
		w++
	}
	if errs := f.InsertEdges(ins); errs != nil {
		for i, e := range errs {
			if e != nil {
				t.Fatalf("reinsert errs[%d] = %v", i, e)
			}
		}
	}
	if f.Weight() != ref.Weight() || f.ForestSize() != ref.ForestSize() {
		t.Fatalf("after repopulation: (w=%d,s=%d) vs ref (w=%d,s=%d)",
			f.Weight(), f.ForestSize(), ref.Weight(), ref.ForestSize())
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatalf("invariant after repopulation: %v", err)
	}
}

// TestBatchPropagationAllocs pins a warm cycle of one delete batch and one
// reinsert batch of a single edge, through the whole batch path, at 0
// allocations under the inline pipeline and under the level sweep: the
// closure, the readiness counts, the node inputs and outputs, the ready
// queue, the seeds and the error slots all live on the tree's nodes or in
// its reused scratch. The churned edge (0,2) lies in the half of the
// vertices where every node below the root is small, and it is a forest
// edge in each node on its path; a lighter path through the other half,
// (0,16) and (16,2), makes it a non-tree edge at the root. It was inserted
// first, in a batch of its own, so it holds its endpoints' base gadget
// slots at the root, and each cycle frees and retakes them with no ring
// surgery: the root engine takes its allocation-free non-tree path. The
// companion edge (1,3) shares every node on the churned edge's path, so
// none of them empties (an emptied node is destroyed and rebuilt, which
// allocates by design).
func TestBatchPropagationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, pipelined := range []bool{true, false} {
		f := New(32, coreFactory)
		f.Pipeline = pipelined
		mustNil(t, f.InsertEdge(0, 2, 100))
		mustNil(t, firstErr(f.InsertEdges([]batch.Edge{{U: 0, V: 16, W: 1}, {U: 16, V: 2, W: 2}, {U: 1, V: 3, W: 3}})))
		if snapshot(f)[[3]int64{0, 2, 100}] {
			t.Fatal("the churned edge is a forest edge at the root")
		}
		for level := f.levels; level > 0; level-- {
			nd := f.nodes[f.keyAt(level, 0, 2)]
			if nd == nil || nd.eng != nil || !slices.ContainsFunc(nd.sm.items, func(it batch.Item) bool { return it.Key == 100 && it.Idx == 1 }) {
				t.Fatalf("level %d: the churned edge is not a forest edge of a small node", level)
			}
		}
		del := [][2]int{{0, 2}}
		ins := []batch.Edge{{U: 0, V: 2, W: 100}}
		failed := false
		cycle := func() {
			failed = failed || firstErr(f.DeleteEdges(del)) != nil || firstErr(f.InsertEdges(ins)) != nil
		}
		ops := f.BatchNodeOps
		cycle()
		// Both batches apply every node on the path, the root included.
		if got, want := f.BatchNodeOps-ops, 2*int64(f.levels+1); got != want {
			t.Fatalf("pipeline=%v: a cycle applied %d nodes, want %d", pipelined, got, want)
		}
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 || failed {
			t.Fatalf("pipeline=%v: warm propagation cycle allocations = %.1f (failed %v), want 0", pipelined, avg, failed)
		}
		mustNil(t, f.CheckInvariant())
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
