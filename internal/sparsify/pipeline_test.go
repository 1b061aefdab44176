package sparsify

import (
	"testing"

	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/ternary"
	"parmsf/internal/xrand"
)

// pramFactory builds the Section 5.3 node engine the composed pipeline
// uses: a core structure on a private PRAM simulator under the ternary
// wrapper, so per-node depth/work deltas are observable and order-free.
func pramFactory(localN, maxEdges int) Engine {
	nm := pram.New(false)
	return ternary.New(localN, maxEdges, func(gn int) ternary.Engine {
		return core.NewMSF(gn, core.Config{}, core.PRAMCharger{M: nm})
	})
}

func withCounters(f *Forest) *Forest {
	f.DepthFn = func(e Engine) int64 { return e.Machine().Time }
	f.WorkFn = func(e Engine) int64 { return e.Machine().Work }
	return f
}

// TestPipelineMatchesBarrier drives identical random mixed batch streams
// through the level-barrier scheduler, the pipeline scheduler executed
// inline, and the pipeline scheduler on a 3-worker task pool, requiring
// identical forests, identical node-op counters and — because per-node
// engines are private and the batch aggregate merges them commutatively —
// bit-identical ParDepth/ParWork after every batch, regardless of task
// completion order, and pins the stream's final totals. Run with -race to
// certify the concurrent node applications share no state.
func TestPipelineMatchesBarrier(t *testing.T) {
	const n = 32
	barrier := withCounters(New(n, pramFactory))
	inline := withCounters(New(n, pramFactory))
	inline.Pipeline = true
	pooled := withCounters(New(n, pramFactory))
	pooled.Pipeline = true
	tp := NewTaskPool(3)
	defer tp.Close()
	pooled.Spawn = tp.Spawn
	forests := []*Forest{barrier, inline, pooled}

	check := func(stage string) {
		t.Helper()
		for i, f := range forests[1:] {
			if f.Weight() != barrier.Weight() || f.ForestSize() != barrier.ForestSize() {
				t.Fatalf("%s: forest diverges on scheduler %d: (w=%d,s=%d) vs barrier (w=%d,s=%d)",
					stage, i+1, f.Weight(), f.ForestSize(), barrier.Weight(), barrier.ForestSize())
			}
			sa, sb := snapshot(barrier), snapshot(f)
			for e := range sa {
				if !sb[e] {
					t.Fatalf("%s: edge %v only in barrier forest", stage, e)
				}
			}
			if len(sa) != len(sb) {
				t.Fatalf("%s: %d vs %d forest edges", stage, len(sa), len(sb))
			}
			if f.ParDepth != barrier.ParDepth || f.ParWork != barrier.ParWork {
				t.Fatalf("%s: counters diverge on scheduler %d: {D=%d W=%d} vs barrier {D=%d W=%d}",
					stage, i+1, f.ParDepth, f.ParWork, barrier.ParDepth, barrier.ParWork)
			}
			if f.BatchNodeOps != barrier.BatchNodeOps {
				t.Fatalf("%s: node-op counters diverge on scheduler %d: %d vs %d",
					stage, i+1, f.BatchNodeOps, barrier.BatchNodeOps)
			}
			if f.NodeCount() != barrier.NodeCount() {
				t.Fatalf("%s: node counts diverge: %d vs %d", stage, f.NodeCount(), barrier.NodeCount())
			}
		}
	}

	rng := xrand.New(1511)
	var live [][2]int
	liveSet := map[[2]int]bool{}
	nextW := int64(1)
	for round := 0; round < 10; round++ {
		var ins []batch.Edge
		seen := map[[2]int]bool{}
		for len(ins) < 20 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			k := key(u, v)
			if seen[k] || liveSet[k] {
				continue
			}
			seen[k] = true
			ins = append(ins, batch.Edge{U: u, V: v, W: nextW})
			nextW++
		}
		for fi, f := range forests {
			for i, err := range f.InsertEdges(ins) {
				if err != nil {
					t.Fatalf("round %d scheduler %d: ins errs[%d] = %v", round, fi, i, err)
				}
			}
		}
		for _, it := range ins {
			k := key(it.U, it.V)
			live = append(live, k)
			liveSet[k] = true
		}
		check("insert")
		for _, f := range forests {
			if err := f.CheckInvariant(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}

		var del [][2]int
		for i := 0; i < 10 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			del = append(del, live[j])
			delete(liveSet, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for fi, f := range forests {
			for i, err := range f.DeleteEdges(del) {
				if err != nil {
					t.Fatalf("round %d scheduler %d: del errs[%d] (%v) = %v", round, fi, i, del[i], err)
				}
			}
		}
		check("delete")
	}
	if barrier.BatchNodeOps == 0 {
		t.Fatal("stream never exercised a node batch")
	}
	// The stream's totals are pinned, so a change that moves a charge, a
	// node application or the stored node count has to say so here.
	if barrier.ParDepth != 48271 || barrier.ParWork != 1254346 || barrier.BatchNodeOps != 756 || barrier.NodeCount() != 120 {
		t.Fatalf("totals {D=%d W=%d ops=%d nodes=%d}, pinned {D=48271 W=1254346 ops=756 nodes=120}",
			barrier.ParDepth, barrier.ParWork, barrier.BatchNodeOps, barrier.NodeCount())
	}
}

// TestPipelineTeardownOrdering mirrors the barrier teardown regression for
// the pipeline scheduler: a delete batch that empties a whole subtree must
// drain every node's events into its parent strictly before destroying the
// node, in dependency order rather than level order.
func TestPipelineTeardownOrdering(t *testing.T) {
	const n = 16
	f := New(n, coreFactory)
	f.Pipeline = true
	var sub [][2]int
	w := int64(1)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			sub = append(sub, [2]int{u, v})
			mustNil(t, f.InsertEdge(u, v, w))
			w++
		}
	}
	for _, e := range [][2]int{{4, 8}, {8, 12}, {12, 15}, {0, 8}} {
		mustNil(t, f.InsertEdge(e[0], e[1], w))
		w++
	}
	nodesBefore := f.NodeCount()
	if errs := f.DeleteEdges(sub); errs != nil {
		for i, e := range errs {
			if e != nil {
				t.Fatalf("delete errs[%d] = %v", i, e)
			}
		}
	}
	if err := f.CheckInvariant(); err != nil {
		t.Fatalf("invariant after teardown: %v", err)
	}
	if f.NodeCount() >= nodesBefore {
		t.Fatalf("no nodes were destroyed: %d -> %d", nodesBefore, f.NodeCount())
	}
	if f.ForestSize() != 4 {
		t.Fatalf("forest size after teardown = %d, want 4", f.ForestSize())
	}
}

// TestTiedBatchSeedOrder inserts one batch of equal-weight edges into two
// trees in opposite input orders, after a base batch that leaves the
// lowest-level nodes non-empty (so they insert incrementally, where the
// first of two tied edges on a cycle wins). Seeding in canonical key order
// makes every node apply the same op sequence either way: the root's forest
// events, the forests and ParDepth/ParWork must all be identical.
func TestTiedBatchSeedOrder(t *testing.T) {
	const n = 16
	var base, tied []batch.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u%4 == 0 && v == u+2 {
				base = append(base, batch.Edge{U: u, V: v, W: int64(1 + u)})
			} else {
				tied = append(tied, batch.Edge{U: u, V: v, W: 100})
			}
		}
	}
	reversed := make([]batch.Edge, len(tied))
	for i, e := range tied {
		reversed[len(tied)-1-i] = batch.Edge{U: e.V, V: e.U, W: e.W}
	}
	tp := NewTaskPool(3)
	defer tp.Close()
	type rootEvent struct {
		u, v  int
		w     int64
		added bool
	}
	type run struct {
		f      *Forest
		events []rootEvent
	}
	runs := make([]*run, 2)
	for i, order := range [][]batch.Edge{tied, reversed} {
		r := &run{f: withCounters(New(n, pramFactory))}
		r.f.Pipeline = true
		if i == 1 {
			r.f.Spawn = tp.Spawn
		}
		mustNil(t, firstErr(r.f.InsertEdges(base)))
		r.f.SetEvents(func(u, v int, w int64, added bool) {
			r.events = append(r.events, rootEvent{u, v, w, added})
		})
		mustNil(t, firstErr(r.f.InsertEdges(order)))
		mustNil(t, r.f.CheckInvariant())
		runs[i] = r
	}
	a, b := runs[0], runs[1]
	if len(a.events) == 0 || len(a.events) != len(b.events) {
		t.Fatalf("root forest events: %d vs %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("root forest event %d: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
	sameForests(t, "tied batch in two orders", a.f, b.f)
	if a.f.ParDepth != b.f.ParDepth || a.f.ParWork != b.f.ParWork {
		t.Fatalf("counters: {D=%d W=%d} vs {D=%d W=%d}", a.f.ParDepth, a.f.ParWork, b.f.ParDepth, b.f.ParWork)
	}
}
