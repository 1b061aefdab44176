package core

import (
	"testing"

	"parmsf/internal/pram"
)

// TestSingleEdgeFastPathAllocs pins the steady-state allocation count of
// single-edge updates, which InsertEdge/DeleteEdge send through ApplyBatch
// as one-element batches: a warm non-tree delete + reinsert pair allocates
// nothing. The graph names the edge by a reused ID into flat arrays, and
// everything else on the path (the batch itself, classify, entry-pair
// scan, insert-side root walks, deferred flush, normalize) runs on pooled
// Store scratch and persistent kernels. This is the regression gate for
// the batch pipeline's scratch pooling; it will fail if a per-op closure,
// a per-op map/slice make or a per-edge record sneaks back in.
func TestSingleEdgeFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	mach := pram.New(false)
	m := NewMSF(64, Config{}, PRAMCharger{M: mach})
	for i := 0; i < 63; i++ {
		if err := m.InsertEdge(i, i+1, int64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	// (0, 2) closes the triangle 0-1-2 with the heaviest weight, so it
	// stays a non-tree edge across every reinsertion.
	if err := m.InsertEdge(0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if err := m.DeleteEdge(0, 2); err != nil {
			panic(err)
		}
		if err := m.InsertEdge(0, 2, 1000); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle() // warm the pooled scratch and side tables
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm non-tree delete+insert pair allocates %v objects, want 0", avg)
	}
}

// TestBatchApplyWarmAllocs pins the steady-state allocation shape of the
// batch pipeline: with the plan's stage slices, the per-item error slots,
// the classify tables and the insert-classification union-find all pooled
// in the Store, and reinsertions reusing the freed edge IDs, a warm
// ApplyBatch of independent non-tree updates allocates nothing (measured
// 0). The pinned ceiling of 0.05 per update leaves room for incidental
// runtime noise while still failing if a per-edge record (one per
// reinsertion reads 0.5) or any O(batch) per-stage allocation (a fresh
// plan slice, error slice or classify table per batch) sneaks back in.
func TestBatchApplyWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	mach := pram.New(false)
	m := NewMSF(256, Config{}, PRAMCharger{M: mach})
	del, ins := LoadNontreeScenario(m, 256)
	round := func() {
		for _, err := range m.ApplyBatch(del) {
			if err != nil {
				panic(err)
			}
		}
		for _, err := range m.ApplyBatch(ins) {
			if err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	perOp := testing.AllocsPerRun(20, round) / float64(2*len(del))
	if perOp > 0.05 {
		t.Fatalf("warm batch apply allocates %.2f objects per update, want <= 0.05", perOp)
	}
}

// TestTreeEdgeCycleAllocs pins the allocation ceiling of the tree-edge
// path, which the non-tree gates above never reach: deleting a tree edge
// that has a replacement, then reinserting it, cuts and relinks tours,
// splits and merges chunks, rebuilds rows, runs the replacement search and
// swaps the replacement back out. The core is a 512-vertex path plus chords
// (v, v+2) for every v divisible by 4, so each vertex is in at most one
// chord; the cycle deletes the path edge (256, 257), which the chord
// (256, 258) replaces. Under the PRAM charger every row rebuild also
// collects its destinations for the tournament charge, on pooled scratch.
// Each ceiling is the measured count plus a small margin.
func TestTreeEdgeCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	for _, tc := range []struct {
		name  string
		ch    Charger
		limit float64
	}{
		{"seq", SeqCharger{}, 24},                     // measured 20
		{"pram", PRAMCharger{M: pram.New(false)}, 24}, // measured 20
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, u = 512, 256
			m := NewMSF(n, Config{}, tc.ch)
			for v := 0; v+1 < n; v++ {
				mustIns(t, m, v, v+1, Weight(v+1))
			}
			for v := 0; v+2 < n; v += 4 {
				mustIns(t, m, v, v+2, Weight(1000+v))
			}
			cycle := func() {
				if err := m.DeleteEdge(u, u+1); err != nil {
					panic(err)
				}
				if err := m.InsertEdge(u, u+1, u+1); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 10; i++ {
				cycle() // warm the pooled scratch, vectors and kernels
			}
			avg := testing.AllocsPerRun(100, cycle)
			t.Logf("%.1f objects per delete+reinsert cycle", avg)
			if avg > tc.limit {
				t.Fatalf("warm tree-edge delete+reinsert allocates %.1f objects, want <= %v", avg, tc.limit)
			}
			checkAll(t, m)
		})
	}
}

// TestNewMSFFootprintAllocs pins what an empty engine allocates: NewStore
// builds no per-vertex state (every vertex starts implicit) and no CAdj
// row (no chunk id is registered yet), and the graph and the link-cut
// forest each take flat arrays, so the object count does not grow with n.
// Building every vertex's short list up front cost about 5n objects.
func TestNewMSFFootprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	const limit = 24 // measured 21
	count := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { NewMSF(n, Config{}, SeqCharger{}) })
	}
	small, large := count(1<<10), count(1<<16)
	t.Logf("NewMSF allocates %v objects at n=2^10, %v at n=2^16", small, large)
	if small != large || large > limit {
		t.Fatalf("NewMSF allocates %v objects at n=2^10 and %v at n=2^16, want equal and <= %d", small, large, limit)
	}
}
