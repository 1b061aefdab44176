package sparsify

import (
	"slices"
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/ternary"
	"parmsf/internal/xrand"
)

// kruskalEngine is a node engine over the recompute-from-scratch Kruskal
// baseline (events by diffing): the tree's second engine in tests. It
// applies batches and loads one edge at a time, exports no components and
// emits no cut sides.
type kruskalEngine struct{ *baseline.Kruskal }

func kruskalFactory(localN, maxEdges int) Engine {
	return kruskalEngine{baseline.NewKruskal(localN)}
}

func (k kruskalEngine) InsertEdges(items []batch.Edge) []error {
	errs := make([]error, len(items))
	for i, it := range items {
		errs[i] = k.InsertEdge(it.U, it.V, it.W)
	}
	return errs
}

func (k kruskalEngine) DeleteEdges(keys [][2]int) []error {
	errs := make([]error, len(keys))
	for i, kk := range keys {
		errs[i] = k.DeleteEdge(kk[0], kk[1])
	}
	return errs
}

func (k kruskalEngine) Load(items []batch.Edge, _ *pram.Machine) []error {
	return k.InsertEdges(items)
}

func (kruskalEngine) ExportComponents([]int32, int) bool { return false }
func (kruskalEngine) SetCutSides(func(side []int32))     {}
func (kruskalEngine) Machine() *pram.Machine             { return nil }

// coreFactory builds nodes on the real pipeline: ternary-wrapped core
// engine, as the full Theorem 1.1 construction requires.
func coreFactory(localN, maxEdges int) Engine {
	return ternary.New(localN, maxEdges, func(gn int) ternary.Engine {
		return core.NewMSF(gn, core.Config{}, core.SeqCharger{})
	})
}

func TestBasicInsertDelete(t *testing.T) {
	for name, fac := range map[string]Factory{"kruskal": kruskalFactory, "core": coreFactory} {
		fac := fac
		t.Run(name, func(t *testing.T) {
			f := New(8, fac)
			if err := f.InsertEdge(0, 5, 10); err != nil {
				t.Fatal(err)
			}
			if !f.Connected(0, 5) || f.Weight() != 10 || f.ForestSize() != 1 {
				t.Fatalf("state: w=%d size=%d", f.Weight(), f.ForestSize())
			}
			if err := f.InsertEdge(0, 5, 11); err != ErrExists {
				t.Fatalf("dup: %v", err)
			}
			if err := f.DeleteEdge(0, 5); err != nil {
				t.Fatal(err)
			}
			if f.Connected(0, 5) || f.Weight() != 0 {
				t.Fatal("delete did not clear")
			}
			if err := f.DeleteEdge(0, 5); err != ErrMissing {
				t.Fatalf("missing: %v", err)
			}
			if err := f.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTriangleAndReplacement(t *testing.T) {
	f := New(8, coreFactory)
	f.InsertEdge(0, 1, 1)
	f.InsertEdge(1, 2, 2)
	f.InsertEdge(0, 2, 9)
	if f.Weight() != 3 {
		t.Fatalf("weight = %d, want 3", f.Weight())
	}
	f.DeleteEdge(0, 1)
	if f.Weight() != 11 || !f.Connected(0, 1) {
		t.Fatalf("after replacement: w=%d", f.Weight())
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomAgainstKruskal drives the sparsification tree (core-engine
// nodes) against a flat Kruskal engine on dense-ish graphs, validating the
// local-graph invariant as it goes.
func TestRandomAgainstKruskal(t *testing.T) {
	const n = 24
	f := New(n, coreFactory)
	ref := baseline.NewKruskal(n)
	rng := xrand.New(60221023)
	type pair struct{ u, v int }
	var live []pair
	nextW := int64(1)
	for step := 0; step < 900; step++ {
		if rng.Intn(5) < 3 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			e1 := f.InsertEdge(u, v, nextW)
			e2 := ref.InsertEdge(u, v, nextW)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: %v vs %v", step, e1, e2)
			}
			if e1 == nil {
				live = append(live, pair{u, v})
			}
			nextW += int64(1 + rng.Intn(6))
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := f.DeleteEdge(p.u, p.v); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := ref.DeleteEdge(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if f.Weight() != ref.Weight() || f.ForestSize() != ref.ForestSize() {
			t.Fatalf("step %d: sparsify (w=%d,n=%d) vs kruskal (w=%d,n=%d)",
				step, f.Weight(), f.ForestSize(), ref.Weight(), ref.ForestSize())
		}
		if step%29 == 0 {
			if err := f.CheckInvariant(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			u, v := rng.Intn(n), rng.Intn(n)
			if f.Connected(u, v) != ref.Connected(u, v) {
				t.Fatalf("step %d: connectivity disagreement (%d,%d)", step, u, v)
			}
		}
	}
}

// TestDenseGraph checks correctness at m >> n (sparsification's purpose).
func TestDenseGraph(t *testing.T) {
	const n = 16
	f := New(n, coreFactory)
	ref := baseline.NewKruskal(n)
	rng := xrand.New(5)
	// Insert the complete graph with random weights.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := rng.Int63()%1000 + 1
			if err := f.InsertEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			ref.InsertEdge(u, v, w)
		}
	}
	if f.Weight() != ref.Weight() {
		t.Fatalf("complete graph: %d vs %d", f.Weight(), ref.Weight())
	}
	// Tear down all MSF edges repeatedly to force replacements everywhere.
	for round := 0; round < 10; round++ {
		var te [][2]int
		f.ForestEdges(func(u, v int, w int64) bool {
			te = append(te, [2]int{u, v})
			return true
		})
		if len(te) == 0 {
			break
		}
		p := te[rng.Intn(len(te))]
		if err := f.DeleteEdge(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
		ref.DeleteEdge(p[0], p[1])
		if f.Weight() != ref.Weight() {
			t.Fatalf("round %d: %d vs %d", round, f.Weight(), ref.Weight())
		}
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeGC ensures emptied nodes are destroyed (space bound).
func TestNodeGC(t *testing.T) {
	f := New(16, kruskalFactory)
	f.InsertEdge(3, 12, 5)
	f.InsertEdge(4, 9, 6)
	grown := f.NodeCount()
	if grown == 0 {
		t.Fatal("no nodes created")
	}
	f.DeleteEdge(3, 12)
	f.DeleteEdge(4, 9)
	// Only the (possibly empty) root may remain.
	if got := f.NodeCount(); got > 1 {
		t.Fatalf("NodeCount = %d after emptying, want <= 1", got)
	}
}

// TestUpdateCostIndependentOfM is the qualitative E4 shape check: node
// engines touched per update stay O(log n) regardless of how many edges the
// graph holds.
func TestUpdateCostIndependentOfM(t *testing.T) {
	const n = 32
	f := New(n, kruskalFactory)
	rng := xrand.New(8)
	var added [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := f.InsertEdge(u, v, rng.Int63()%1000+1); err == nil {
				added = append(added, [2]int{u, v})
			}
		}
	}
	// Node count is O(m log n), never more than (levels+1) * m.
	if f.NodeCount() > (6+1)*len(added) {
		t.Fatalf("node count %d too large for m=%d", f.NodeCount(), len(added))
	}
}

// TestLowestLevelHoldsPairs checks that no node is stored below level
// levels, whose intervals hold two vertices, after a dense load and after
// delete+insert churn, and that each node there holds the graph edges
// between its two intervals (CheckInvariant).
func TestLowestLevelHoldsPairs(t *testing.T) {
	const n = 32
	f := New(n, kruskalFactory)
	if span := f.pn >> uint(f.levels); span != 2 {
		t.Fatalf("lowest stored level %d has intervals of %d vertices, want 2", f.levels, span)
	}
	rng := xrand.New(97)
	live := map[[2]int]bool{}
	var liveL [][2]int
	fresh := func(m int) []batch.Edge {
		var es []batch.Edge
		for len(es) < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if k := key(u, v); u != v && !live[k] {
				live[k] = true
				liveL = append(liveL, k)
				es = append(es, batch.Edge{U: u, V: v, W: rng.Int63()%1000 + 1})
			}
		}
		return es
	}
	check := func(stage string) {
		t.Helper()
		bottom := 0
		for k := range f.nodes {
			if int(k.level) > f.levels {
				t.Fatalf("%s: node %v stored below level %d", stage, k, f.levels)
			}
			if int(k.level) == f.levels {
				bottom++
			}
		}
		if bottom == 0 {
			t.Fatalf("%s: no node at level %d", stage, f.levels)
		}
		if err := f.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	mustNil(t, firstErr(f.InsertEdges(fresh(8*n))))
	check("after load")
	for round := 0; round < 20; round++ {
		del := liveL[:8]
		for _, k := range del {
			delete(live, k)
		}
		mustNil(t, firstErr(f.DeleteEdges(del)))
		liveL = append([][2]int(nil), liveL[8:]...)
		mustNil(t, firstErr(f.InsertEdges(fresh(8))))
	}
	check("after churn")
}

// TestCheckInvariantCatchesCorruption plants a node at the lowest stored
// level whose edge count disagrees with the graph's edge map, a node above
// it whose count disagrees with its children's forests, and a small node
// whose forest is not the Kruskal forest of its edges; each must fail
// CheckInvariant.
func TestCheckInvariantCatchesCorruption(t *testing.T) {
	f := New(16, coreFactory)
	w := int64(1)
	for u := 0; u < 16; u++ {
		for v := u + 1; v < 16; v += 3 {
			mustNil(t, f.InsertEdge(u, v, w))
			w++
		}
	}
	mustNil(t, f.CheckInvariant())

	// An edge dropped from the map behind the tree's back.
	k := [2]int{0, 1}
	wt, ok := f.edges[k]
	if !ok {
		t.Fatalf("edge %v not loaded", k)
	}
	delete(f.edges, k)
	if err := f.CheckInvariant(); err == nil {
		t.Fatal("CheckInvariant missed a lowest-level node holding an edge the map lacks")
	}
	f.edges[k] = wt
	mustNil(t, f.CheckInvariant())

	// A node above the lowest level miscounting its children's forests.
	nd := f.nodes[f.keyAt(f.levels-1, 0, 4)]
	if nd == nil || nd.m == 0 {
		t.Fatal("no populated node above the lowest level")
	}
	nd.m++
	if err := f.CheckInvariant(); err == nil {
		t.Fatal("CheckInvariant missed a node whose count disagrees with its children's forests")
	}
	nd.m--
	mustNil(t, f.CheckInvariant())

	// A small node whose forest flags swap a forest edge for a non-forest
	// one: every count still agrees, but the forest is not the Kruskal
	// forest of its slice.
	var sm *node
	var in, out int
	for _, c := range f.nodes {
		if c.eng != nil {
			continue
		}
		in = slices.IndexFunc(c.sm.items, func(it batch.Item) bool { return it.Idx == 1 })
		out = slices.IndexFunc(c.sm.items, func(it batch.Item) bool { return it.Idx == 0 })
		if in >= 0 && out >= 0 {
			sm = c
			break
		}
	}
	if sm == nil {
		t.Fatal("no small node holds a non-forest edge")
	}
	sm.sm.items[in].Idx, sm.sm.items[out].Idx = 0, 1
	if err := f.CheckInvariant(); err == nil {
		t.Fatal("CheckInvariant missed a small node whose forest is not its slice's Kruskal forest")
	}
	sm.sm.items[in].Idx, sm.sm.items[out].Idx = 1, 0
	mustNil(t, f.CheckInvariant())
}

// firstErr returns the first non-nil error of a batch result.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
