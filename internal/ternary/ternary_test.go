package ternary

import (
	"strings"
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/core"
	"parmsf/internal/xrand"
)

func newCoreWrapper(n, maxE int) *Wrapper {
	return New(n, maxE, func(gn int) Engine {
		return core.NewMSF(gn, core.Config{}, core.SeqCharger{})
	})
}

func TestHighDegreeStar(t *testing.T) {
	// A degree-20 star is impossible for the raw degree-3 engine; the
	// wrapper must handle it.
	w := newCoreWrapper(21, 64)
	for i := 1; i <= 20; i++ {
		if err := w.InsertEdge(0, i, int64(i)); err != nil {
			t.Fatalf("insert spoke %d: %v", i, err)
		}
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
	if w.ForestSize() != 20 {
		t.Fatalf("forest size = %d, want 20", w.ForestSize())
	}
	want := int64(20 * 21 / 2)
	if w.Weight() != want {
		t.Fatalf("weight = %d, want %d", w.Weight(), want)
	}
	for i := 1; i <= 20; i++ {
		if !w.Connected(0, i) {
			t.Fatalf("spoke %d disconnected", i)
		}
	}
	// Delete the middle spokes; compaction must keep the path consistent.
	for i := 5; i <= 15; i++ {
		if err := w.DeleteEdge(0, i); err != nil {
			t.Fatal(err)
		}
		if err := w.CheckGadget(); err != nil {
			t.Fatalf("after deleting spoke %d: %v", i, err)
		}
	}
	if w.ForestSize() != 9 {
		t.Fatalf("forest size = %d, want 9", w.ForestSize())
	}
}

func TestErrors(t *testing.T) {
	w := newCoreWrapper(4, 8)
	if err := w.InsertEdge(0, 0, 1); err != ErrSelfLoop {
		t.Fatalf("self loop: %v", err)
	}
	if err := w.InsertEdge(0, 9, 1); err != ErrVertex {
		t.Fatalf("bad vertex: %v", err)
	}
	if err := w.InsertEdge(0, 1, RingWeight); err != ErrWeight {
		t.Fatalf("ring weight: %v", err)
	}
	if err := w.InsertEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.InsertEdge(1, 0, 7); err != ErrExists {
		t.Fatalf("dup: %v", err)
	}
	if err := w.DeleteEdge(2, 3); err != ErrMissing {
		t.Fatalf("missing: %v", err)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	w := newCoreWrapper(10, 3)
	inserted := 0
	for i := 0; i < 9; i++ {
		if err := w.InsertEdge(i, i+1, int64(i+1)); err == nil {
			inserted++
		} else if err != ErrCapacity {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if inserted == 9 {
		t.Fatal("capacity bound never hit")
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstReference drives the wrapper (around the real core engine) and
// a plain Kruskal on the ORIGINAL graph in lockstep: once with the core's
// default chunk size, and once with K=8, where the ring surgery crosses
// chunk boundaries and the core's own invariants are checked as well.
func TestAgainstReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   core.Config
		check bool
	}{
		{"default", core.Config{}, false},
		{"k8", core.Config{K: 8}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 24
			var eng *core.MSF
			w := New(n, 4*n, func(gn int) Engine {
				eng = core.NewMSF(gn, tc.cfg, core.SeqCharger{})
				return eng
			})
			ref := baseline.NewKruskal(n)
			rng := xrand.New(777)
			type pair struct{ u, v int }
			var live []pair
			nextW := int64(1)
			for step := 0; step < 1500; step++ {
				if rng.Intn(5) < 3 || len(live) == 0 {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					e1 := w.InsertEdge(u, v, nextW)
					if e1 == ErrCapacity {
						continue
					}
					e2 := ref.InsertEdge(u, v, nextW)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: %v vs %v", step, e1, e2)
					}
					if e1 == nil {
						live = append(live, pair{u, v})
					}
					nextW += int64(1 + rng.Intn(4))
				} else {
					i := rng.Intn(len(live))
					p := live[i]
					if err := w.DeleteEdge(p.u, p.v); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if err := ref.DeleteEdge(p.u, p.v); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if w.Weight() != ref.Weight() || w.ForestSize() != ref.ForestSize() {
					t.Fatalf("step %d: wrapper (w=%d,n=%d) vs kruskal (w=%d,n=%d)",
						step, w.Weight(), w.ForestSize(), ref.Weight(), ref.ForestSize())
				}
				if step%37 == 0 {
					if err := w.CheckGadget(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if tc.check {
						if err := eng.Store().CheckInvariants(); err != nil {
							t.Fatalf("step %d: core: %v", step, err)
						}
					}
					u, v := rng.Intn(n), rng.Intn(n)
					if w.Connected(u, v) != ref.Connected(u, v) {
						t.Fatalf("step %d: connectivity disagreement", step)
					}
				}
			}
		})
	}
}

// TestEventsTranslation checks that forwarded events are in original-vertex
// space and never mention ring edges.
func TestEventsTranslation(t *testing.T) {
	w := newCoreWrapper(6, 24)
	var adds, dels int
	w.SetEvents(func(u, v int, wt int64, added bool) {
		if u < 0 || u >= 6 || v < 0 || v >= 6 {
			t.Fatalf("event outside original space: (%d,%d)", u, v)
		}
		if wt == RingWeight {
			t.Fatal("ring edge leaked through events")
		}
		if added {
			adds++
		} else {
			dels++
		}
	})
	w.InsertEdge(0, 1, 5)
	w.InsertEdge(0, 2, 6)
	w.InsertEdge(0, 3, 7)
	w.DeleteEdge(0, 2)
	if adds == 0 || dels == 0 {
		t.Fatalf("events not seen: adds=%d dels=%d", adds, dels)
	}
}

func TestForestEdgesOriginalSpace(t *testing.T) {
	w := newCoreWrapper(5, 16)
	w.InsertEdge(0, 1, 1)
	w.InsertEdge(0, 2, 2)
	w.InsertEdge(0, 3, 3)
	w.InsertEdge(0, 4, 4)
	count := 0
	w.ForestEdges(func(u, v int, wt int64) bool {
		if u != 0 && v != 0 {
			t.Fatalf("unexpected forest edge (%d,%d)", u, v)
		}
		count++
		return true
	})
	if count != 4 {
		t.Fatalf("forest edges = %d, want 4", count)
	}
}

// TestBatchedRingSurgeries drives the batch entry points (core-backed
// engine, so rings and real edges go through one gadget ApplyBatch) against
// per-edge insertion on a high-degree workload, checking forests, gadget
// bookkeeping, and — implicitly, via the panicking assertRings — the
// ring-count invariants after every batch.
func TestBatchedRingSurgeries(t *testing.T) {
	const n = 24
	bat := newCoreWrapper(n, 256)
	ref := newCoreWrapper(n, 256)
	rng := xrand.New(777)
	live := map[[2]int]bool{}
	nextW := int64(1)
	for round := 0; round < 8; round++ {
		var ins []BatchEdge
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
			if live[k] || seen[k] {
				continue
			}
			seen[k] = true
			ins = append(ins, BatchEdge{U: u, V: v, W: nextW})
			nextW++
		}
		// An in-batch duplicate per round keeps the error path hot.
		ins = append(ins, BatchEdge{U: ins[0].U, V: ins[0].V, W: nextW})
		nextW++
		for i, e := range bat.InsertEdges(ins) {
			want := error(nil)
			if i == len(ins)-1 {
				want = ErrExists
			}
			if e != want {
				t.Fatalf("round %d: errs[%d] = %v, want %v", round, i, e, want)
			}
			if want == nil {
				if err := ref.InsertEdge(ins[i].U, ins[i].V, ins[i].W); err != nil {
					t.Fatalf("ref insert: %v", err)
				}
				k := [2]int{ins[i].U, ins[i].V}
				if k[0] > k[1] {
					k[0], k[1] = k[1], k[0]
				}
				live[k] = true
			}
		}
		if bat.Weight() != ref.Weight() || bat.ForestSize() != ref.ForestSize() {
			t.Fatalf("round %d: (w=%d,s=%d) vs ref (w=%d,s=%d)",
				round, bat.Weight(), bat.ForestSize(), ref.Weight(), ref.ForestSize())
		}
		if err := bat.CheckGadget(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		// Delete a third of the live edges as one batch.
		var del [][2]int
		for k := range live {
			if len(del) >= 10 {
				break
			}
			del = append(del, k)
		}
		for _, k := range del {
			delete(live, k)
		}
		for i, e := range bat.DeleteEdges(del) {
			if e != nil {
				t.Fatalf("round %d: delete errs[%d] = %v", round, i, e)
			}
			if err := ref.DeleteEdge(del[i][0], del[i][1]); err != nil {
				t.Fatalf("ref delete: %v", err)
			}
		}
		if bat.Weight() != ref.Weight() {
			t.Fatalf("round %d after delete: %d vs %d", round, bat.Weight(), ref.Weight())
		}
		if err := bat.CheckGadget(); err != nil {
			t.Fatalf("round %d after delete: %v", round, err)
		}
	}
}

// TestBatchRingCapacity exhausts gadget capacity mid-batch: the tail items
// must fail with ErrCapacity while every staged slot stays consistent (the
// closing assertRings and CheckGadget both agree).
func TestBatchRingCapacity(t *testing.T) {
	// Pool of n + 2*maxEdges gadget vertices: the star batch runs dry
	// before its last spoke.
	w := newCoreWrapper(6, 2)
	errs := w.InsertEdges([]BatchEdge{
		{U: 0, V: 1, W: 10},
		{U: 0, V: 2, W: 11},
		{U: 0, V: 3, W: 12},
		{U: 0, V: 4, W: 13},
		{U: 0, V: 5, W: 14},
	})
	sawCapacity := false
	for _, e := range errs {
		if e == ErrCapacity {
			sawCapacity = true
		}
	}
	if !sawCapacity {
		t.Fatalf("expected a capacity failure, got %v", errs)
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
	// Still usable after the rollback.
	if err := w.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckGadgetCatchesCorruption mutation-tests CheckGadget: each
// corruption of the slot bookkeeping must fail it.
func TestCheckGadgetCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(w *Wrapper)
		expect  string
	}{
		{"one-sided-hosting", func(w *Wrapper) {
			hs := w.edges[key(0, 3)]
			w.hosted[hs[1]] = -1
		}, "does not host back"},
		{"entry-names-other-edge", func(w *Wrapper) {
			a, b := key(0, 1), key(4, 5)
			w.edges[a], w.edges[b] = w.edges[b], w.edges[a]
		}, "map entry"},
		{"pool-slot-hosts", func(w *Wrapper) {
			g := w.free[len(w.free)-1]
			w.hosted[g] = g
		}, "pool slot"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newCoreWrapper(6, 16)
			for i, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {4, 5}} {
				if err := w.InsertEdge(e[0], e[1], int64(10+i)); err != nil {
					t.Fatalf("insert %v: %v", e, err)
				}
			}
			if err := w.CheckGadget(); err != nil {
				t.Fatalf("pre-corruption state invalid: %v", err)
			}
			tc.corrupt(w)
			err := w.CheckGadget()
			if err == nil {
				t.Fatalf("CheckGadget missed corruption %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.expect) {
				t.Fatalf("CheckGadget caught %q as %v, want %q", tc.name, err, tc.expect)
			}
		})
	}
}

// TestWarmNonTreeCycleAllocs pins a warm delete+reinsert, through
// DeleteEdges and InsertEdges, of a heavy non-tree edge hosted on both
// endpoints' base slots at 0 allocations: the wrapper holds the edge's
// hosting by value and returns its error slots from pooled scratch, and
// core's non-tree path allocates nothing.
func TestWarmNonTreeCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	w := newCoreWrapper(4, 16)
	for _, e := range []BatchEdge{{U: 0, V: 1, W: 9}, {U: 0, V: 2, W: 1}, {U: 2, V: 1, W: 2}} {
		if err := w.InsertEdge(e.U, e.V, e.W); err != nil {
			t.Fatalf("insert %v: %v", e, err)
		}
	}
	if hs := w.edges[key(0, 1)]; hs != [2]int32{0, 1} || w.Weight() != 3 {
		t.Fatalf("(0,1) hosted on slots %v with forest weight %d, want the base slots and a non-tree edge", hs, w.Weight())
	}
	del, ins := [][2]int{{0, 1}}, []BatchEdge{{U: 0, V: 1, W: 9}}
	cycle := func() {
		if err := w.DeleteEdges(del)[0]; err != nil {
			panic(err)
		}
		if err := w.InsertEdges(ins)[0]; err != nil {
			panic(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle() // warm the pooled scratch
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("warm non-tree delete+reinsert allocates %.1f objects, want 0", got)
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
}
