package parmsf

import (
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

func TestQuickstartShape(t *testing.T) {
	f := MustNew(6, Options{})
	mustIns(t, f, 0, 1, 4)
	mustIns(t, f, 1, 2, 7)
	mustIns(t, f, 0, 2, 2) // evicts (1,2)? no: cycle 0-1-2: heaviest 7 leaves
	if f.Weight() != 6 {
		t.Fatalf("weight = %d, want 6", f.Weight())
	}
	if !f.Connected(0, 2) || f.Connected(0, 5) {
		t.Fatal("connectivity wrong")
	}
	if err := f.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if f.Weight() != 9 || !f.Connected(0, 1) {
		t.Fatalf("after delete: w=%d", f.Weight())
	}
}

func mustIns(t *testing.T, f *Forest, u, v int, w Weight) {
	t.Helper()
	if err := f.Insert(u, v, w); err != nil {
		t.Fatalf("Insert(%d,%d,%d): %v", u, v, w, err)
	}
}

func TestErrorMapping(t *testing.T) {
	f := MustNew(4, Options{MaxEdges: 16})
	mustIns(t, f, 0, 1, 5)
	if err := f.Insert(1, 0, 6); err != ErrExists {
		t.Fatalf("dup: %v", err)
	}
	if err := f.Delete(2, 3); err != ErrNotFound {
		t.Fatalf("missing: %v", err)
	}
	if err := f.Insert(0, 0, 5); err != ErrBadEdge {
		t.Fatalf("self loop: %v", err)
	}
	if err := f.Insert(0, 9, 5); err != ErrBadEdge {
		t.Fatalf("bad vertex: %v", err)
	}
	if err := f.Insert(2, 3, MinWeight-1); err != ErrBadEdge {
		t.Fatalf("reserved weight: %v", err)
	}
}

// TestAllConfigurationsAgree drives every pipeline configuration and the
// naive baseline through one churn stream and requires identical forests.
func TestAllConfigurationsAgree(t *testing.T) {
	const n = 32
	base := workload.RandomSparse(n, 2*n, 13)
	stream := workload.Churn(n, base, 800, false, 14)
	forests := map[string]*Forest{
		"default":  MustNew(n, Options{MaxEdges: 8 * n}),
		"parallel": MustNew(n, Options{MaxEdges: 8 * n, Workers: 1}),
		"sparsify": MustNew(n, Options{Sparsify: true}),
	}
	ref := baseline.NewKruskal(n)
	for i, op := range stream.Ops {
		if op.Kind == workload.OpInsert {
			refErr := ref.InsertEdge(op.U, op.V, op.W)
			for name, f := range forests {
				if err := f.Insert(op.U, op.V, op.W); (err == nil) != (refErr == nil) {
					t.Fatalf("op %d: %s insert %v vs ref %v", i, name, err, refErr)
				}
			}
		} else {
			ref.DeleteEdge(op.U, op.V)
			for name, f := range forests {
				if err := f.Delete(op.U, op.V); err != nil {
					t.Fatalf("op %d: %s delete: %v", i, name, err)
				}
			}
		}
		for name, f := range forests {
			if f.Weight() != ref.Weight() || f.Size() != ref.ForestSize() {
				t.Fatalf("op %d: %s (w=%d,s=%d) vs ref (w=%d,s=%d)",
					i, name, f.Weight(), f.Size(), ref.Weight(), ref.ForestSize())
			}
		}
	}
	if forests["default"].PRAM() != nil {
		t.Fatal("sequential forest exposes a machine")
	}
}

func TestEdgesIteration(t *testing.T) {
	f := MustNew(5, Options{})
	mustIns(t, f, 0, 1, 1)
	mustIns(t, f, 1, 2, 2)
	mustIns(t, f, 3, 4, 3)
	count, total := 0, Weight(0)
	f.Edges(func(u, v int, w Weight) bool {
		count++
		total += w
		return true
	})
	if count != 3 || total != 6 {
		t.Fatalf("Edges saw %d edges, total %d", count, total)
	}
	if f.Size() != 3 {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestPRAMCountersAdvance(t *testing.T) {
	f := MustNew(64, Options{Workers: 1})
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(64), rng.Intn(64)
		if u == v {
			continue
		}
		f.Insert(u, v, Weight(i+1))
	}
	m := f.PRAM()
	if m.Time == 0 || m.Work == 0 {
		t.Fatalf("PRAM counters did not advance: %+v", m)
	}
	if m.Work < m.Time {
		t.Fatal("work below depth is impossible")
	}
}

func TestHighDegreeHub(t *testing.T) {
	// A hub with degree 50: exercises degree reduction through the facade.
	f := MustNew(51, Options{MaxEdges: 256})
	for i := 1; i <= 50; i++ {
		mustIns(t, f, 0, i, Weight(i))
	}
	if f.Size() != 50 {
		t.Fatalf("size = %d", f.Size())
	}
	for i := 1; i <= 50; i += 7 {
		if err := f.Delete(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if f.Connected(0, 1) {
		t.Fatal("deleted spoke still connected")
	}
	if !f.Connected(0, 2) {
		t.Fatal("remaining spoke disconnected")
	}
}

func TestComponents(t *testing.T) {
	f := MustNew(6, Options{})
	if f.Components() != 6 {
		t.Fatalf("empty graph components = %d", f.Components())
	}
	mustIns(t, f, 0, 1, 1)
	mustIns(t, f, 2, 3, 2)
	if f.Components() != 4 {
		t.Fatalf("components = %d, want 4", f.Components())
	}
	mustIns(t, f, 1, 2, 3)
	if f.Components() != 3 {
		t.Fatalf("components = %d, want 3", f.Components())
	}
	if err := f.Delete(1, 2); err != nil {
		t.Fatal(err)
	}
	if f.Components() != 4 {
		t.Fatalf("components after delete = %d, want 4", f.Components())
	}
}

// TestEqualWeightConnectivity drives a forest whose edges all weigh 0,
// where it maintains some spanning forest rather than a unique minimum
// one, against connectivity by BFS over a live adjacency map.
func TestEqualWeightConnectivity(t *testing.T) {
	f := MustNew(10, Options{})
	adj := map[int]map[int]bool{}
	link := func(u, v int) {
		if adj[u] == nil {
			adj[u] = map[int]bool{}
		}
		if adj[v] == nil {
			adj[v] = map[int]bool{}
		}
		adj[u][v], adj[v][u] = true, true
	}
	unlink := func(u, v int) { delete(adj[u], v); delete(adj[v], u) }
	conn := func(u, v int) bool {
		if u == v {
			return true
		}
		seen := map[int]bool{u: true}
		q := []int{u}
		for len(q) > 0 {
			x := q[0]
			q = q[1:]
			for y := range adj[x] {
				if y == v {
					return true
				}
				if !seen[y] {
					seen[y] = true
					q = append(q, y)
				}
			}
		}
		return false
	}
	rng := xrand.New(21)
	type pair struct{ u, v int }
	var live []pair
	for step := 0; step < 600; step++ {
		if rng.Bool() || len(live) == 0 {
			u, v := rng.Intn(10), rng.Intn(10)
			if u == v {
				continue
			}
			if err := f.Insert(u, v, 0); err == nil {
				link(u, v)
				live = append(live, pair{u, v})
			}
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := f.Delete(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			unlink(p.u, p.v)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		u, v := rng.Intn(10), rng.Intn(10)
		if f.Connected(u, v) != conn(u, v) {
			t.Fatalf("step %d: Connected(%d,%d) wrong", step, u, v)
		}
	}
}
