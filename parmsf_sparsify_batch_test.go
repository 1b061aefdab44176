package parmsf

import (
	"fmt"
	"testing"

	"parmsf/internal/xrand"
)

// TestSparsifyBatchParity drives identical random mixed batch streams
// through single-edge Insert/Delete on a sequential sparsified forest (each
// a one-element batch, so the reference sees no batch-mates), the batched
// sparsify path on the sequential simulator and on real worker pools of 1,
// 2 and 4 (all under the pipelined scheduler), a worker-pool run forced
// back onto the strict level-barrier scheduler with its node tasks fanned
// out over the pool, and the flat (non-sparsified) engine, requiring
// identical forests, weights and per-item errors everywhere, plus
// identical Time/Work/MaxActive counters across every machine-backed
// sparsify run — the scheduler and the worker count must both be invisible
// in the model cost. Run with -race to certify the concurrent node
// application is data-race free.
func TestSparsifyBatchParity(t *testing.T) {
	const n = 48
	perEdge := MustNew(n, Options{Sparsify: true})
	flat := MustNew(n, Options{MaxEdges: 16 * n})
	sim := MustNew(n, Options{Sparsify: true, Workers: 1})
	machined := []*Forest{sim}
	for _, w := range []int{1, 2, 4} {
		pf := MustNew(n, Options{Sparsify: true, Workers: w})
		defer pf.Close()
		machined = append(machined, pf)
	}
	barrier := MustNew(n, Options{Sparsify: true, Workers: 2})
	defer barrier.Close()
	barrier.spars.Pipeline = false // level-barrier scheduler on the pool
	barrierFanouts := 0
	barrier.spars.Exec = func(k int, run func(int)) {
		if k > 1 {
			barrierFanouts++
		}
		barrier.mach.Run(k, run)
	}
	machined = append(machined, barrier)
	batched := append([]*Forest{flat}, machined...)

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
	checkForests := func(stage string) {
		t.Helper()
		for i, f := range batched {
			sameForest(t, perEdge, f, fmt.Sprintf("%s backend %d", stage, i))
		}
	}

	rng := xrand.New(5150)
	var live []Edge
	nextW := int64(1 << 20)
	for round := 0; round < 6; round++ {
		var ins []Edge
		seen := map[[2]int]bool{}
		for len(ins) < 30 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
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
			ins = append(ins, Edge{u, v, nextW})
			nextW++
		}
		// Error paths in every backend: self loop, bad vertex, reserved
		// weight, in-batch duplicate.
		ins = append(ins, Edge{7, 7, nextW}, Edge{-1, 3, nextW}, Edge{2, 5, MinWeight - 1}, ins[0])
		// The single-edge reference applies the batch in the same weight-sorted
		// order the batch path uses (weights are distinct and ascending by
		// construction, so batch order == sorted order here).
		var refErrs []error
		for _, e := range ins {
			refErrs = append(refErrs, perEdge.Insert(e.U, e.V, e.W))
		}
		for bi, f := range batched {
			errs := f.InsertEdges(ins)
			for i := range ins {
				if errs[i] != refErrs[i] {
					t.Fatalf("round %d backend %d: ins errs[%d] = %v, want %v", round, bi, i, errs[i], refErrs[i])
				}
			}
		}
		for i, e := range ins {
			if refErrs[i] == nil {
				live = append(live, e)
			}
		}
		checkForests("insert")
		checkCounters("insert")

		var del []EdgeKey
		for i := 0; i < 12 && len(live) > 1; i++ {
			j := rng.Intn(len(live))
			del = append(del, EdgeKey{live[j].U, live[j].V})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		del = append(del, EdgeKey{0, 0}, del[0]) // absent key + in-batch duplicate
		var refDel []error
		for _, k := range del {
			refDel = append(refDel, perEdge.Delete(k.U, k.V))
		}
		for bi, f := range batched {
			errs := f.DeleteEdges(del)
			for i := range del {
				if errs[i] != refDel[i] {
					t.Fatalf("round %d backend %d: del errs[%d] = %v, want %v", round, bi, i, errs[i], refDel[i])
				}
			}
		}
		checkForests("delete")
		checkCounters("delete")
	}

	for _, f := range machined {
		if f.spars.BatchNodeOps == 0 {
			t.Fatal("batch path never applied a node batch")
		}
	}
	if barrierFanouts == 0 {
		t.Fatal("level-barrier scheduler never ran a level's node tasks on the pool")
	}
}

// TestSparsifyBatchAcceptance applies a 512-edge mixed update batch (256
// deletions spanning tree and non-tree edges plus 256 insertions) on an
// m = 16n graph with Sparsify set, requiring bit-identical forests,
// weights and PRAM counters across Workers in {1, 2, 4}.
func TestSparsifyBatchAcceptance(t *testing.T) {
	const (
		n = 64
		m = 16 * n // 1024 live edges on 64 vertices
	)
	type run struct {
		f       *Forest
		workers int
	}
	var runs []run
	for _, w := range []int{1, 2, 4} {
		f := MustNew(n, Options{Sparsify: true, Workers: w})
		defer f.Close()
		runs = append(runs, run{f, w})
	}

	// Deterministic dense edge set: m distinct pairs, distinct weights.
	rng := xrand.New(1611)
	var edges []Edge
	seen := map[[2]int]bool{}
	nextW := int64(1000)
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
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
		edges = append(edges, Edge{u, v, nextW})
		nextW++
	}
	for _, r := range runs {
		if errs := r.f.InsertEdges(edges); errs != nil {
			t.Fatalf("workers=%d: load reported errors", r.workers)
		}
	}

	// The mixed batch: 256 deletions alternating tree and non-tree edges
	// (as classified on the loaded state), then 256 fresh insertions.
	forestEdge := map[[2]int]bool{}
	runs[0].f.Edges(func(u, v int, w Weight) bool {
		if u > v {
			u, v = v, u
		}
		forestEdge[[2]int{u, v}] = true
		return true
	})
	var treeDel, nonTreeDel []EdgeKey
	for _, e := range edges {
		k := [2]int{e.U, e.V}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if forestEdge[k] {
			treeDel = append(treeDel, EdgeKey{k[0], k[1]})
		} else {
			nonTreeDel = append(nonTreeDel, EdgeKey{k[0], k[1]})
		}
	}
	var del []EdgeKey
	for i := 0; len(del) < 256; i++ {
		if i < len(treeDel) && len(del) < 256 {
			del = append(del, treeDel[i])
		}
		if i < len(nonTreeDel) && len(del) < 256 {
			del = append(del, nonTreeDel[i])
		}
	}
	var ins []Edge
	for len(ins) < 256 {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
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
		ins = append(ins, Edge{u, v, nextW})
		nextW++
	}

	for _, r := range runs {
		if errs := r.f.DeleteEdges(del); errs != nil {
			t.Fatalf("workers=%d: delete batch reported errors", r.workers)
		}
		if errs := r.f.InsertEdges(ins); errs != nil {
			t.Fatalf("workers=%d: insert batch reported errors", r.workers)
		}
	}
	ref := runs[0]
	for _, r := range runs[1:] {
		sameForest(t, ref.f, r.f, fmt.Sprintf("workers %d vs %d", ref.workers, r.workers))
		ma, mb := ref.f.PRAM(), r.f.PRAM()
		if ma.Time != mb.Time || ma.Work != mb.Work || ma.MaxActive != mb.MaxActive {
			t.Fatalf("counters diverge between workers %d and %d: {%d %d %d} vs {%d %d %d}",
				ref.workers, r.workers, ma.Time, ma.Work, ma.MaxActive, mb.Time, mb.Work, mb.MaxActive)
		}
	}
}
