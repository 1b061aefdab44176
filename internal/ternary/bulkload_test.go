package ternary

import (
	"maps"
	"slices"
	"testing"

	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

// TestLoadMatchesSortedInsert loads a shuffled edge set with many weight
// ties, classified on a machine, and requires the forest, weight and size
// that a weight-sorted InsertEdges of the same set builds, plus clean
// gadget bookkeeping.
func TestLoadMatchesSortedInsert(t *testing.T) {
	const n, m = 40, 160
	rng := xrand.New(2101)
	var items []BatchEdge
	seen := map[[2]int]bool{}
	for len(items) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[key(u, v)] {
			continue
		}
		seen[key(u, v)] = true
		items = append(items, BatchEdge{U: u, V: v, W: int64(1 + rng.Intn(40))})
	}
	mach := pram.New(false)
	loaded := newCoreWrapper(n, m)
	for i, err := range loaded.Load(items, mach) {
		if err != nil {
			t.Fatalf("load errs[%d] = %v", i, err)
		}
	}
	if mach.Work == 0 {
		t.Fatal("classification charged nothing on the machine")
	}
	if err := loaded.CheckGadget(); err != nil {
		t.Fatal(err)
	}

	sorted := slices.Clone(items)
	slices.SortFunc(sorted, func(a, b BatchEdge) int {
		if a.W != b.W {
			return int(a.W - b.W)
		}
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	ref := newCoreWrapper(n, m)
	for i, err := range ref.InsertEdges(sorted) {
		if err != nil {
			t.Fatalf("insert errs[%d] = %v", i, err)
		}
	}
	if loaded.Weight() != ref.Weight() || loaded.ForestSize() != ref.ForestSize() {
		t.Fatalf("loaded (w=%d,s=%d) vs inserted (w=%d,s=%d)",
			loaded.Weight(), loaded.ForestSize(), ref.Weight(), ref.ForestSize())
	}
	if !maps.Equal(forestSet(loaded), forestSet(ref)) {
		t.Fatal("loaded and inserted forests list different edges")
	}
}

// TestLoadErrorsAtInputIndex loads a star that overruns a small capacity,
// mixed with malformed items and a repeated key, and requires each
// rejection at the rejected item's own input index. The star's edges are
// all forest edges, staged lightest first, so the heaviest one is the
// first that finds the slot pool empty.
func TestLoadErrorsAtInputIndex(t *testing.T) {
	w := newCoreWrapper(8, 3) // 6 pool slots; staging an edge needs 2 free
	items := []BatchEdge{
		{U: 0, V: 1, W: 10},
		{U: 3, V: 3, W: 5},
		{U: 0, V: 7, W: 70}, // the seventh star edge: no pool slot left
		{U: 0, V: 9, W: 5},
		{U: 0, V: 2, W: RingWeight},
		{U: 0, V: 3, W: 90}, // repeats (3, 0), which is the forest occurrence
		{U: 0, V: 4, W: 40},
		{U: 0, V: 5, W: 50},
		{U: 3, V: 0, W: 30},
		{U: 0, V: 6, W: 60},
		{U: 1, V: 2, W: 100}, // non-tree, staged after the star
		{U: 2, V: 0, W: 20},
	}
	want := map[int]error{1: ErrSelfLoop, 2: ErrCapacity, 3: ErrVertex, 4: ErrWeight, 5: ErrExists, 10: ErrCapacity}
	for i, err := range w.Load(items, nil) {
		if err != want[i] {
			t.Fatalf("errs[%d] = %v, want %v", i, err, want[i])
		}
	}
	if w.Weight() != 210 || w.ForestSize() != 6 || w.M() != 6 {
		t.Fatalf("loaded w=%d size=%d m=%d, want 210, 6, 6", w.Weight(), w.ForestSize(), w.M())
	}
	if w.Connected(0, 7) || !w.Connected(2, 6) {
		t.Fatal("connectivity does not match the loaded star")
	}
	if err := w.CheckGadget(); err != nil {
		t.Fatal(err)
	}
}
