package sparsify

import (
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
