package batch

import (
	"fmt"
	"sort"
	"testing"

	"parmsf/internal/pram"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// classifyInput returns m edge items over n vertices (no self loops;
// parallel edges allowed, told apart by Idx) with keys in [0, keys). When
// core > 0 the first half of the items stay inside vertices [0, core) and
// are lighter than every item of the second half, so the first pivot
// round's light side connects only the core and the filter keeps most of
// the heavy side, forcing a second pivot round.
func classifyInput(n, m, core int, keys int64, seed uint64) []Item {
	rng := xrand.New(seed)
	items := make([]Item, m)
	for i := range items {
		span, off := n, int64(0)
		if core > 0 {
			if i < m/2 {
				span = core
			} else {
				off = keys
			}
		}
		u := rng.Intn(span)
		v := (u + 1 + rng.Intn(span-1)) % span
		items[i] = Item{Key: off + rng.Int63()%keys, A: u, B: v, Idx: i}
	}
	return items
}

// referenceMSF classifies items by a full sort and a plain union-find,
// independently of the kernel: it returns the forest flags by Idx and the
// forest items in ascending order.
func referenceMSF(n int, items []Item) ([]bool, []Item) {
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		switch {
		case a.Key != b.Key:
			return a.Key < b.Key
		case a.A != b.A:
			return a.A < b.A
		case a.B != b.B:
			return a.B < b.B
		}
		return a.Idx < b.Idx
	})
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	root := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	isTree := make([]bool, len(items))
	var forest []Item
	for _, it := range sorted {
		if ru, rv := root(it.A), root(it.B); ru != rv {
			parent[ru] = rv
			isTree[it.Idx] = true
			forest = append(forest, it)
		}
	}
	return isTree, forest
}

// TestClassifyFilterRounds checks the kernel against an independent
// sort-and-union-find reference on inputs past the direct-sort cutoff, so
// the pivot, partition and filter rounds run, on no machine, the
// sequential simulator and a 4-worker pool: the forest flags, the
// ascending forest prefix and the components must match the reference on
// every machine, and the two machines must charge the same Time and Work.
func TestClassifyFilterRounds(t *testing.T) {
	for _, tc := range []struct {
		n, m, core int
		keys       int64
	}{
		{n: 300, m: 5000, keys: 1 << 40},
		{n: 1000, m: 12000, keys: 1 << 40},
		{n: 64, m: 2000, keys: 1 << 40},               // direct sort
		{n: 500, m: 9000, keys: 4},                    // heavily tied keys
		{n: 3000, m: 16000, core: 150, keys: 1 << 40}, // two pivot rounds
	} {
		t.Run(fmt.Sprintf("n=%d/m=%d/core=%d/keys=%d", tc.n, tc.m, tc.core, tc.keys), func(t *testing.T) {
			input := classifyInput(tc.n, tc.m, tc.core, tc.keys, uint64(tc.n*tc.m))
			wantTree, wantForest := referenceMSF(tc.n, input)
			par := pram.NewParallel(4)
			defer par.Close()
			var charges [][2]int64
			for _, m := range []*pram.Machine{nil, pram.New(false), par} {
				items := append([]Item(nil), input...)
				isTree := make([]bool, len(items))
				var k MSF
				forest := k.Classify(m, tc.n, items, isTree)
				if rounds, want := cap(k.sel) > 0, tc.m > max(2*tc.n, kruskalCutoff); rounds != want {
					t.Fatalf("pivot rounds ran = %v, want %v", rounds, want)
				}
				for i := range isTree {
					if isTree[i] != wantTree[i] {
						t.Fatalf("isTree[%d] = %v, want %v", i, isTree[i], wantTree[i])
					}
				}
				if len(forest) != len(wantForest) {
					t.Fatalf("forest has %d items, want %d", len(forest), len(wantForest))
				}
				for i := range forest {
					if forest[i] != wantForest[i] {
						t.Fatalf("forest[%d] = %+v, want %+v", i, forest[i], wantForest[i])
					}
				}
				seen := make([]bool, len(items))
				for _, it := range items {
					if seen[it.Idx] {
						t.Fatalf("item %d appears twice after Classify", it.Idx)
					}
					seen[it.Idx] = true
				}
				// Components: every input edge inside one, and as many as
				// the reference forest leaves.
				for _, it := range input {
					if k.Find(it.A) != k.Find(it.B) {
						t.Fatalf("item %d: endpoints in different components", it.Idx)
					}
				}
				comps := 0
				for v := 0; v < tc.n; v++ {
					if k.Find(v) == v {
						comps++
					}
				}
				if comps != tc.n-len(wantForest) {
					t.Fatalf("%d components, want %d", comps, tc.n-len(wantForest))
				}
				if m != nil {
					charges = append(charges, [2]int64{m.Time, m.Work})
				}
			}
			if charges[0] != charges[1] {
				t.Fatalf("simulator charged (Time, Work) = %v, pool %v", charges[0], charges[1])
			}
			if charges[0][0] == 0 || charges[0][1] == 0 {
				t.Fatal("Classify charged nothing")
			}
		})
	}
}

// TestClassifyWarmAllocs pins the warm allocation count of the kernel:
// after a cold round, Classify on pooled scratch allocates nothing, on a
// large input and on a small one of the size a sparsification node
// recomputes (about 30 edges on 16 vertices). The large run counts one
// object per run, the freshly built input slice; the small run copies
// its input into a reused buffer, so it must read 0.
func TestClassifyWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 256
	es := workload.RandomSparse(n, 6*n, 17)
	isTree := make([]bool, len(es))
	mk := func() []Item {
		out := make([]Item, 0, len(es))
		for i, e := range es {
			out = append(out, Item{Key: e.W, A: e.U, B: e.V, Idx: i})
		}
		return out
	}
	var k MSF
	k.Classify(nil, n, mk(), isTree) // cold round grows the pools
	avg := testing.AllocsPerRun(10, func() {
		clear(isTree)
		k.Classify(nil, n, mk(), isTree)
	})
	if avg > 1 {
		t.Fatalf("warm classify allocations = %.1f, want <= 1 (the input slice)", avg)
	}

	small := classifyInput(16, 30, 0, 1<<40, 5)
	buf := make([]Item, len(small))
	var ks MSF
	var m pram.Machine
	ks.Classify(&m, 16, append(buf[:0], small...), nil)
	avg = testing.AllocsPerRun(100, func() {
		ks.Classify(&m, 16, append(buf[:0], small...), nil)
	})
	if avg != 0 {
		t.Fatalf("warm small classify allocations = %.1f, want 0", avg)
	}
}
