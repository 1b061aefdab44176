package ternary

import (
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/core"
	"parmsf/internal/xrand"
)

// forestSet collects a wrapper's MSF edge set.
func forestSet(w *Wrapper) map[[3]int64]bool {
	s := make(map[[3]int64]bool)
	w.ForestEdges(func(u, v int, wt int64) bool {
		if u > v {
			u, v = v, u
		}
		s[[3]int64{int64(u), int64(v), wt}] = true
		return true
	})
	return s
}

// recorder is a core engine that keeps a copy of the last gadget batch it
// applied.
type recorder struct {
	*core.MSF
	last []core.BatchOp
}

func (r *recorder) ApplyBatch(ops []core.BatchOp) []error {
	r.last = append(r.last[:0], ops...)
	return r.MSF.ApplyBatch(ops)
}

// TestBatchDeleteCompaction drives random delete batches through
// DeleteEdges over a K=8 core, where slot retirements and splices cross
// chunk boundaries, against a per-edge twin of one-key batches and a
// Kruskal reference on the original graph: identical forests, weights and
// gadget bookkeeping after every batch, and the core's own invariants.
// The ring-count invariant is asserted inside the entry point.
func TestBatchDeleteCompaction(t *testing.T) {
	const n = 24
	var eng *core.MSF
	bat := New(n, 256, func(gn int) Engine {
		eng = core.NewMSF(gn, core.Config{K: 8}, core.SeqCharger{})
		return eng
	})
	one := newCoreWrapper(n, 256)
	ref := baseline.NewKruskal(n)
	rng := xrand.New(4242)
	var live [][2]int
	liveSet := map[[2]int]bool{}
	nextW := int64(100)
	for round := 0; round < 8; round++ {
		// Refill with fresh random edges (per-edge inserts on every twin:
		// this test isolates the delete side).
		for added := 0; added < 24; {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			k := key(u, v)
			if liveSet[k] {
				continue
			}
			if err := bat.InsertEdge(u, v, nextW); err != nil {
				t.Fatalf("round %d: batch twin insert %v: %v", round, k, err)
			}
			if err := one.InsertEdge(u, v, nextW); err != nil {
				t.Fatalf("round %d: per-edge twin insert %v: %v", round, k, err)
			}
			if err := ref.InsertEdge(u, v, nextW); err != nil {
				t.Fatalf("round %d: reference insert %v: %v", round, k, err)
			}
			liveSet[k] = true
			live = append(live, k)
			nextW++
			added++
		}

		// Delete a random half in one batch, with an absent key and an
		// in-batch duplicate exercising the error slots.
		var del [][2]int
		for i := 0; i < 16 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			del = append(del, live[j])
			delete(liveSet, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		del = append(del, [2]int{0, 0}, del[0])
		errs := bat.DeleteEdges(del)
		for i, k := range del {
			var want error
			if i >= len(del)-2 {
				want = ErrMissing
			} else {
				if err := one.DeleteEdge(k[0], k[1]); err != nil {
					t.Fatalf("round %d: per-edge delete %v: %v", round, k, err)
				}
				if err := ref.DeleteEdge(k[0], k[1]); err != nil {
					t.Fatalf("round %d: reference delete %v: %v", round, k, err)
				}
			}
			if errs[i] != want {
				t.Fatalf("round %d: del errs[%d] (%v) = %v, want %v", round, i, k, errs[i], want)
			}
		}

		if bat.Weight() != ref.Weight() || bat.ForestSize() != ref.ForestSize() {
			t.Fatalf("round %d: (w=%d,s=%d) vs Kruskal (w=%d,s=%d)",
				round, bat.Weight(), bat.ForestSize(), ref.Weight(), ref.ForestSize())
		}
		fa, fb := forestSet(bat), forestSet(one)
		for e := range fa {
			if !fb[e] {
				t.Fatalf("round %d: edge %v only in batch forest", round, e)
			}
		}
		if len(fa) != len(fb) {
			t.Fatalf("round %d: %d vs %d forest edges", round, len(fa), len(fb))
		}
		if err := bat.CheckGadget(); err != nil {
			t.Fatalf("round %d: batch twin gadget: %v", round, err)
		}
		if err := one.CheckGadget(); err != nil {
			t.Fatalf("round %d: per-edge twin gadget: %v", round, err)
		}
		if err := eng.Store().CheckInvariants(); err != nil {
			t.Fatalf("round %d: core: %v", round, err)
		}
	}
}

// TestBatchDeleteDoubleMove pins a delete batch that empties interior
// slots on both paths of one surviving edge: (0, 1) sits in the last slot
// of vertices 0 and 1, and the batch deletes two lower spokes of each. The
// unhosted bases stay and the emptied interior slots are spliced out, so
// the engine batch is the four real deletions plus one splice per path,
// with no insertion — (0, 1) never moves and keeps its hosting slots.
func TestBatchDeleteDoubleMove(t *testing.T) {
	const n = 10
	var eng *recorder
	w := New(n, 128, func(gn int) Engine {
		eng = &recorder{MSF: core.NewMSF(gn, core.Config{}, core.SeqCharger{})}
		return eng
	})
	// Give vertices 0 and 1 three spokes each, then the shared edge (0, 1)
	// — inserted last, so it is hosted at the last slot of both paths.
	var wt int64 = 100
	for _, e := range [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 5}, {1, 6}, {1, 7}, {0, 1}} {
		if err := w.InsertEdge(e[0], e[1], wt); err != nil {
			t.Fatalf("insert %v: %v", e, err)
		}
		wt++
	}
	shared := w.edges[key(0, 1)]
	errs := w.DeleteEdges([][2]int{{0, 2}, {0, 3}, {1, 5}, {1, 6}})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("del errs[%d] = %v", i, err)
		}
	}
	if hs := w.edges[key(0, 1)]; hs != shared {
		t.Fatalf("(0,1) moved from slots %v to %v", shared, hs)
	}
	var dels, splices, ins int
	for _, op := range eng.last {
		switch {
		case op.Splice:
			splices++
		case op.Del:
			dels++
		default:
			ins++
		}
	}
	if dels != 4 || splices != 2 || ins != 0 {
		t.Fatalf("engine batch: %d deletions, %d splices, %d insertions; want 4, 2, 0", dels, splices, ins)
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
	if !w.Connected(0, 1) {
		t.Fatal("surviving edge (0,1) lost")
	}
	if w.ForestSize() != 3 || w.M() != 3 {
		t.Fatalf("forest=%d m=%d, want 3/3", w.ForestSize(), w.M())
	}
	if err := w.DeleteEdge(0, 1); err != nil {
		t.Fatalf("delete (0,1): %v", err)
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
}
