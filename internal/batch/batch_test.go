package batch

import (
	"sort"
	"testing"

	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

func randomItems(n int, seed uint64) []Item {
	rng := xrand.New(seed)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			// Narrow key range forces duplicate keys, exercising the
			// (A, B, Idx) tie-breakers.
			Key: int64(rng.Intn(n/4 + 1)),
			A:   rng.Intn(64),
			B:   rng.Intn(64),
			Idx: i,
		}
	}
	return items
}

func sortedRef(items []Item) []Item {
	ref := append([]Item(nil), items...)
	sort.Slice(ref, func(i, j int) bool { return cmpItem(ref[i], ref[j]) < 0 })
	return ref
}

func TestSortMatchesSequentialReference(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 2, 7, 100, parallelSortMin - 1, parallelSortMin, 3*parallelSortMin + 13} {
			m := pram.NewParallel(workers)
			items := randomItems(n, uint64(n)*31+uint64(workers))
			ref := sortedRef(items)
			Sort(m, items)
			m.Close()
			for i := range items {
				if items[i] != ref[i] {
					t.Fatalf("workers=%d n=%d: items[%d] = %+v, want %+v",
						workers, n, i, items[i], ref[i])
				}
			}
		}
	}
}

func TestSortNilMachine(t *testing.T) {
	items := randomItems(5000, 7)
	ref := sortedRef(items)
	Sort(nil, items)
	for i := range items {
		if items[i] != ref[i] {
			t.Fatalf("items[%d] = %+v, want %+v", i, items[i], ref[i])
		}
	}
}

func TestSortChargeIndependentOfWorkers(t *testing.T) {
	const n = 3*parallelSortMin + 1
	var counters [3][3]int64
	for i, workers := range []int{1, 4, 8} {
		m := pram.NewParallel(workers)
		Sort(m, randomItems(n, 99))
		counters[i] = [3]int64{m.Time, m.Work, int64(m.MaxActive)}
		m.Close()
	}
	for i := 1; i < len(counters); i++ {
		if counters[i] != counters[0] {
			t.Fatalf("charge depends on worker count: %v vs %v", counters[i], counters[0])
		}
	}
	if counters[0][0] == 0 || counters[0][1] == 0 {
		t.Fatal("sort charged nothing")
	}
}

func TestSortDeterministicAcrossBackends(t *testing.T) {
	const n = parallelSortMin * 2
	base := randomItems(n, 1234)
	seq := append([]Item(nil), base...)
	par := append([]Item(nil), base...)
	Sort(nil, seq)
	m := pram.NewParallel(4)
	defer m.Close()
	Sort(m, par)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("backend divergence at %d: %+v vs %+v", i, seq[i], par[i])
		}
	}
}
