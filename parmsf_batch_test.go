package parmsf

import (
	"fmt"
	"math"
	"testing"

	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

func forestSnapshot(f *Forest) map[[3]int64]bool {
	s := make(map[[3]int64]bool)
	f.Edges(func(u, v int, w Weight) bool {
		if u > v {
			u, v = v, u
		}
		s[[3]int64{int64(u), int64(v), w}] = true
		return true
	})
	return s
}

func sameForest(t *testing.T, a, b *Forest, label string) {
	t.Helper()
	if a.Weight() != b.Weight() || a.Size() != b.Size() {
		t.Fatalf("%s: weight/size diverge: (%d,%d) vs (%d,%d)",
			label, a.Weight(), a.Size(), b.Weight(), b.Size())
	}
	sa, sb := forestSnapshot(a), forestSnapshot(b)
	if len(sa) != len(sb) {
		t.Fatalf("%s: forests have %d vs %d edges", label, len(sa), len(sb))
	}
	for e := range sa {
		if !sb[e] {
			t.Fatalf("%s: edge %v only in first forest", label, e)
		}
	}
}

func TestInsertEdgesMatchesSingles(t *testing.T) {
	const n = 64
	base := workload.RandomSparse(n, 2*n, 42)
	one := MustNew(n, Options{})
	bat := MustNew(n, Options{})
	var edges []Edge
	for _, e := range base {
		mustIns(t, one, e.U, e.V, e.W)
		edges = append(edges, Edge{e.U, e.V, e.W})
	}
	if errs := bat.InsertEdges(edges); errs != nil {
		t.Fatalf("InsertEdges reported errors: %v", errs)
	}
	sameForest(t, one, bat, "batch vs singles")

	// A single op is a one-element batch: one churn stream — including
	// duplicate inserts, self loops and absent deletes — through
	// Insert/Delete and through InsertEdges([e])/DeleteEdges([k]) must
	// leave identical forests, per-op errors and PRAM counters after every
	// op.
	single := MustNew(n, Options{Workers: 1})
	twin := MustNew(n, Options{Workers: 1})
	first := func(errs []error) error {
		if errs == nil {
			return nil
		}
		return errs[0]
	}
	rng := xrand.New(5)
	var live []EdgeKey
	for op := 0; op < 400; op++ {
		var err, twinErr error
		if rng.Intn(3) == 0 && len(live) > 0 {
			k := EdgeKey{rng.Intn(n), rng.Intn(n)} // usually absent
			if rng.Intn(4) != 0 {
				j := rng.Intn(len(live))
				k = live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			err = single.Delete(k.U, k.V)
			twinErr = first(twin.DeleteEdges([]EdgeKey{k}))
		} else {
			e := Edge{rng.Intn(n), rng.Intn(n), Weight(rng.Intn(1 << 20))}
			err = single.Insert(e.U, e.V, e.W)
			twinErr = first(twin.InsertEdges([]Edge{e}))
			if err == nil {
				live = append(live, EdgeKey{e.U, e.V})
			}
		}
		label := fmt.Sprintf("op %d", op)
		if err != twinErr {
			t.Fatalf("%s: single op returned %v, one-element batch %v", label, err, twinErr)
		}
		sameForest(t, single, twin, label)
		if ms, mt := single.PRAM(), twin.PRAM(); ms.Time != mt.Time || ms.Work != mt.Work {
			t.Fatalf("%s: PRAM diverges: single {T=%d W=%d} vs batch {T=%d W=%d}",
				label, ms.Time, ms.Work, mt.Time, mt.Work)
		}
	}
}

func TestInsertEdgesErrors(t *testing.T) {
	f := MustNew(8, Options{})
	errs := f.InsertEdges([]Edge{
		{0, 1, 10},            // ok
		{1, 1, 5},             // self loop
		{2, 99, 5},            // bad vertex
		{-1, 3, 5},            // bad vertex
		{2, 3, MinWeight - 1}, // reserved weight
		{2, 3, math.MaxInt64}, // reserved weight: the core engine's infinity
		{0, 1, 11},            // duplicate of index 0 (heavier, applies second)
		{4, 5, 7},             // ok
	})
	if errs == nil {
		t.Fatal("expected errors")
	}
	want := []error{nil, ErrBadEdge, ErrBadEdge, ErrBadEdge, ErrBadEdge, ErrBadEdge, ErrExists, nil}
	for i, w := range want {
		if errs[i] != w {
			t.Fatalf("errs[%d] = %v, want %v", i, errs[i], w)
		}
	}
	if pe := f.Poisoned(); pe != nil {
		t.Fatalf("invalid edges poisoned the forest: %v", pe)
	}
	if f.Size() != 2 || f.Weight() != 17 {
		t.Fatalf("forest after partial batch: size=%d weight=%d", f.Size(), f.Weight())
	}
}

func TestInsertEdgesSortsByWeight(t *testing.T) {
	// A batch holding a triangle whose lightest edge comes last: weight
	// ordering must leave the heaviest triangle edge out of the forest,
	// same as any insertion order, but without ever promoting it.
	f := MustNew(4, Options{})
	if errs := f.InsertEdges([]Edge{{0, 1, 30}, {1, 2, 20}, {0, 2, 10}}); errs != nil {
		t.Fatalf("errors: %v", errs)
	}
	if f.Weight() != 30 || f.Size() != 2 {
		t.Fatalf("triangle batch: weight=%d size=%d", f.Weight(), f.Size())
	}
	if snap := forestSnapshot(f); snap[[3]int64{0, 1, 30}] {
		t.Fatal("heaviest triangle edge ended up in the forest")
	}
}

func TestDeleteEdges(t *testing.T) {
	const n = 16
	f := MustNew(n, Options{})
	mustIns(t, f, 0, 1, 5)
	mustIns(t, f, 1, 2, 6)
	mustIns(t, f, 2, 3, 7)
	errs := f.DeleteEdges([]EdgeKey{
		{1, 0},  // reversed endpoints: ok
		{2, 3},  // ok
		{4, 5},  // absent
		{7, 7},  // self loop: cannot exist
		{3, 99}, // out of range: cannot exist
	})
	want := []error{nil, nil, ErrNotFound, ErrNotFound, ErrNotFound}
	for i, w := range want {
		if errs[i] != w {
			t.Fatalf("errs[%d] = %v, want %v", i, errs[i], w)
		}
	}
	if f.Size() != 1 || f.Weight() != 6 {
		t.Fatalf("after batch delete: size=%d weight=%d", f.Size(), f.Weight())
	}
	if errs := f.DeleteEdges([]EdgeKey{{1, 2}}); errs != nil {
		t.Fatalf("clean batch delete reported errors: %v", errs)
	}
}

// TestBatchParityAcrossBackends drives an identical randomized stream of
// batch and single updates through the sequential simulator and real
// goroutine-parallel executors at every acceptance worker count (1, 2, 4),
// plus a plain sequential forest, requiring identical forests, weights,
// per-item errors, and — between all machine-backed runs — identical
// Time/Work/MaxActive counters. Run with -race to also certify the
// executor's kernels are data-race free.
func TestBatchParityAcrossBackends(t *testing.T) {
	const n = 2048
	plain := MustNew(n, Options{})
	sim := MustNew(n, Options{Workers: 1})
	machined := []*Forest{sim}
	for _, w := range []int{1, 2, 4} {
		pf := MustNew(n, Options{Workers: w})
		defer pf.Close()
		machined = append(machined, pf)
	}
	forests := append([]*Forest{plain}, machined...)

	checkCounters := func(stage string) {
		t.Helper()
		ms := sim.PRAM()
		for _, pf := range machined[1:] {
			mp := pf.PRAM()
			if ms.Time != mp.Time || ms.Work != mp.Work || ms.MaxActive != mp.MaxActive {
				t.Fatalf("%s: counters diverge: sim {T=%d W=%d A=%d} vs workers {T=%d W=%d A=%d}",
					stage, ms.Time, ms.Work, ms.MaxActive, mp.Time, mp.Work, mp.MaxActive)
			}
		}
	}
	applyBatch := func(stage string, edges []Edge) {
		t.Helper()
		ref := plain.InsertEdges(edges)
		for _, f := range forests[1:] {
			errs := f.InsertEdges(edges)
			if (ref == nil) != (errs == nil) {
				t.Fatalf("%s: error presence diverges", stage)
			}
			for i := range ref {
				if ref[i] != errs[i] {
					t.Fatalf("%s: errs[%d] = %v vs %v", stage, i, errs[i], ref[i])
				}
			}
		}
	}

	// One large batch exercising the chunk-sort + parallel-merge path
	// (size above the inline-sort threshold).
	base := workload.RandomSparse(n, 5000, 7)
	big := make([]Edge, len(base))
	for i, e := range base {
		big[i] = Edge{e.U, e.V, e.W}
	}
	applyBatch("big insert", big)
	checkCounters("big insert")
	for i, f := range machined {
		sameForest(t, plain, f, fmt.Sprintf("big insert backend %d", i))
	}

	// Randomized churn: small batches of inserts and deletes plus single
	// ops, all identical across backends.
	rng := xrand.New(99)
	live := append([]Edge(nil), big...)
	nextW := int64(1 << 40)
	for round := 0; round < 10; round++ {
		var ins []Edge
		for i := 0; i < 40; i++ {
			ins = append(ins, Edge{rng.Intn(n), rng.Intn(n), nextW})
			nextW++
		}
		// Duplicate one existing edge and one self loop to exercise the
		// error paths in every backend.
		ins = append(ins, Edge{live[0].U, live[0].V, nextW}, Edge{3, 3, nextW + 1})
		nextW += 2
		applyBatch("churn insert", ins)
		for _, e := range ins {
			if e.U != e.V && e.U != live[0].U {
				live = append(live, e)
			}
		}

		var del []EdgeKey
		for i := 0; i < 20 && len(live) > 1; i++ {
			j := rng.Intn(len(live))
			del = append(del, EdgeKey{live[j].U, live[j].V})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		del = append(del, EdgeKey{0, 0}) // never present
		refDel := plain.DeleteEdges(del)
		for _, f := range forests[1:] {
			errs := f.DeleteEdges(del)
			if (refDel == nil) != (errs == nil) {
				t.Fatal("delete error presence diverges")
			}
			for i := range refDel {
				if refDel[i] != errs[i] {
					t.Fatalf("delete errs[%d] = %v vs %v", i, errs[i], refDel[i])
				}
			}
		}
		checkCounters("churn")
	}
	for i, f := range machined {
		sameForest(t, plain, f, fmt.Sprintf("final backend %d", i))
	}
}

func TestForestCloseIdempotent(t *testing.T) {
	// Still usable after Close: kernels fall back to sequential. The batch
	// spans six nodes of the sparsification tree's lowest stored level, so
	// the pipeline spawns node tasks through the closed machine, which
	// runs them inline.
	edges := []Edge{{0, 1, 5}, {2, 3, 6}, {4, 5, 7}, {6, 7, 8}, {1, 2, 9}, {0, 7, 10}}
	for _, opt := range []Options{{Workers: 2}, {Sparsify: true, Workers: 2}} {
		f := MustNew(8, opt)
		f.Close()
		f.Close()
		if errs := f.InsertEdges(edges); errs != nil {
			t.Fatalf("%+v: insert after Close: %v", opt, errs)
		}
		if f.Weight() != 45 || f.Size() != 6 {
			t.Fatalf("%+v: after Close weight=%d size=%d, want 45 and 6", opt, f.Weight(), f.Size())
		}
	}
	MustNew(8, Options{}).Close() // Close on a sequential forest is a no-op
}
