package tourney

import (
	"math"
	"testing"

	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

func TestMinReduceBasic(t *testing.T) {
	m := pram.New(false)
	idx, val := MinReduce(m, []int64{5, 3, 9, 3, 7}, math.MaxInt64)
	if val != 3 {
		t.Fatalf("min = %d, want 3", val)
	}
	if idx != 1 {
		t.Fatalf("argmin = %d, want 1 (ties favor left)", idx)
	}
}

func TestMinReduceSkip(t *testing.T) {
	m := pram.New(false)
	const inf = math.MaxInt64
	idx, _ := MinReduce(m, []int64{inf, inf, 4, inf}, inf)
	if idx != 2 {
		t.Fatalf("argmin = %d, want 2", idx)
	}
	idx, v := MinReduce(m, []int64{inf, inf}, inf)
	if idx != -1 || v != inf {
		t.Fatal("all-skipped reduce should return -1")
	}
}

func TestMinReduceDepthLogarithmic(t *testing.T) {
	for _, n := range []int{2, 16, 1024, 65536} {
		m := pram.New(false)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(n - i)
		}
		MinReduce(m, vals, math.MaxInt64)
		wantMax := int64(math.Ceil(math.Log2(float64(n)))) + 2
		if m.Time > wantMax {
			t.Fatalf("n=%d: depth %d exceeds ceil(log2 n)+2 = %d", n, m.Time, wantMax)
		}
	}
}

func TestForestSingleTree(t *testing.T) {
	m := pram.New(true)
	f := NewForest(m, 1, 8)
	entries := []Entry{
		{Tree: 0, Val: 9, Payload: 0},
		{Tree: 0, Val: 2, Payload: 1},
		{Tree: 0, Val: 7, Payload: 2},
		{Tree: 0, Val: 2, Payload: 3},
	}
	got := map[int32][2]int64{}
	f.Run(entries, func(tree int32, val int64, pl int32) {
		got[tree] = [2]int64{val, int64(pl)}
	})
	if len(got) != 1 {
		t.Fatalf("emitted %d winners, want 1", len(got))
	}
	w := got[0]
	if w[0] != 2 || w[1] != 1 {
		t.Fatalf("winner = (val %d, payload %d), want (2, 1): ties favor left", w[0], w[1])
	}
	if v := m.Violations(); len(v) != 0 {
		t.Fatalf("EREW violations: %v", v)
	}
}

func TestForestMultiTree(t *testing.T) {
	m := pram.New(true)
	f := NewForest(m, 5, 16)
	rng := xrand.New(44)
	entries := make([]Entry, 16)
	want := map[int32]int64{}
	for k := range entries {
		tree := int32(rng.Intn(5))
		val := int64(rng.Intn(1000))
		entries[k] = Entry{Tree: tree, Val: val, Payload: int32(k)}
		if cur, ok := want[tree]; !ok || val < cur {
			want[tree] = val
		}
	}
	got := map[int32]int64{}
	f.Run(entries, func(tree int32, val int64, pl int32) { got[tree] = val })
	if len(got) != len(want) {
		t.Fatalf("trees touched: got %d want %d", len(got), len(want))
	}
	for tr, w := range want {
		if got[tr] != w {
			t.Fatalf("tree %d min = %d, want %d", tr, got[tr], w)
		}
	}
	if v := m.Violations(); len(v) != 0 {
		t.Fatalf("EREW violations: %v", v)
	}
}

func TestForestInactiveSlots(t *testing.T) {
	m := pram.New(true)
	f := NewForest(m, 2, 8)
	entries := []Entry{
		{Tree: -1}, {Tree: 1, Val: 4, Payload: 1}, {Tree: -1},
		{Tree: 1, Val: 6, Payload: 3}, {Tree: -1}, {Tree: 0, Val: 11, Payload: 5},
	}
	got := map[int32][2]int64{}
	f.Run(entries, func(tree int32, val int64, pl int32) { got[tree] = [2]int64{val, int64(pl)} })
	if w := got[1]; w[0] != 4 || w[1] != 1 {
		t.Fatalf("tree 1 winner = %v, want (4,1)", w)
	}
	if w := got[0]; w[0] != 11 || w[1] != 5 {
		t.Fatalf("tree 0 winner = %v, want (11,5)", w)
	}
}

func TestForestReuseEpochs(t *testing.T) {
	// Re-running with different data must not see stale values (footnote 1:
	// timestamped reuse instead of reinitialization).
	m := pram.New(true)
	f := NewForest(m, 3, 8)
	run := func(entries []Entry) map[int32]int64 {
		got := map[int32]int64{}
		f.Run(entries, func(tree int32, val int64, pl int32) { got[tree] = val })
		return got
	}
	run([]Entry{{Tree: 0, Val: 1, Payload: 0}, {Tree: 1, Val: 2, Payload: 1}})
	got := run([]Entry{{Tree: 2, Val: 50, Payload: 0}})
	if len(got) != 1 || got[2] != 50 {
		t.Fatalf("second run polluted by first: %v", got)
	}
	got = run([]Entry{{Tree: 0, Val: 100, Payload: 0}})
	if got[0] != 100 {
		t.Fatalf("tree 0 saw stale value: %v", got)
	}
	if v := m.Violations(); len(v) != 0 {
		t.Fatalf("EREW violations: %v", v)
	}
}

func TestForestDepthLogarithmic(t *testing.T) {
	for _, leaves := range []int{4, 64, 1024} {
		m := pram.New(false)
		f := NewForest(m, 1, leaves)
		entries := make([]Entry, leaves)
		for k := range entries {
			entries[k] = Entry{Tree: 0, Val: int64(leaves - k), Payload: int32(k)}
		}
		f.Run(entries, func(int32, int64, int32) {})
		// 1 placement round + 4 rounds per level.
		want := int64(1 + 4*int(math.Ceil(math.Log2(float64(leaves)))))
		if m.Time > want {
			t.Fatalf("leaves=%d: depth %d > %d", leaves, m.Time, want)
		}
	}
}

func TestForestRandomAgainstReference(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		trees := 1 + rng.Intn(6)
		leaves := 1 + rng.Intn(30)
		m := pram.New(true)
		f := NewForest(m, trees, leaves)
		entries := make([]Entry, leaves)
		want := map[int32]int64{}
		for k := range entries {
			if rng.Intn(3) == 0 {
				entries[k] = Entry{Tree: -1}
				continue
			}
			tr := int32(rng.Intn(trees))
			v := int64(rng.Intn(100))
			entries[k] = Entry{Tree: tr, Val: v, Payload: int32(k)}
			if cur, ok := want[tr]; !ok || v < cur {
				want[tr] = v
			}
		}
		got := map[int32]int64{}
		f.Run(entries, func(tree int32, val int64, pl int32) {
			if _, dup := got[tree]; dup {
				t.Fatalf("trial %d: two survivors for tree %d", trial, tree)
			}
			got[tree] = val
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for tr, w := range want {
			if got[tr] != w {
				t.Fatalf("trial %d: tree %d got %d want %d", trial, tr, got[tr], w)
			}
		}
		if v := m.Violations(); len(v) != 0 {
			t.Fatalf("trial %d: EREW violations: %v", trial, v)
		}
	}
}

func BenchmarkForestRun(b *testing.B) {
	m := pram.New(false)
	f := NewForest(m, 64, 1024)
	rng := xrand.New(3)
	entries := make([]Entry, 1024)
	for k := range entries {
		entries[k] = Entry{Tree: int32(rng.Intn(64)), Val: rng.Int63() % 10000, Payload: int32(k)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Run(entries, func(int32, int64, int32) {})
	}
}

// TestRunWarmAllocs pins a warm Run at zero allocations: the contestants
// live in the Forest and the phase kernels are bound once, so a round wide
// enough to fan out to the worker pool allocates nothing either. Every
// tree's winner is checked too, so the pooled state cannot leak between
// runs. Under -race only the allocation count is skipped (the race
// instrumentation allocates); the pool rounds still run and are checked.
func TestRunWarmAllocs(t *testing.T) {
	const trees, leaves = 16, 2 * tourneyFanMin
	entries := make([]Entry, leaves)
	want := make([]int64, trees)
	for tr := range want {
		want[tr] = math.MaxInt64
	}
	rng := xrand.New(5)
	for k := range entries {
		tr := int32(rng.Intn(trees))
		v := rng.Int63() % 100000
		entries[k] = Entry{Tree: tr, Val: v, Payload: int32(k)}
		want[tr] = min(want[tr], v)
	}
	for _, tc := range []struct {
		name string
		m    *pram.Machine
	}{
		{"sequential", pram.New(false)},
		{"pool", pram.NewParallel(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.m.Close()
			f := NewForest(tc.m, trees, leaves)
			got := make([]int64, trees)
			emit := func(tree int32, val int64, _ int32) { got[tree] = val }
			run := func() { f.Run(entries, emit) }
			run() // size the contestant pool
			if avg := testing.AllocsPerRun(20, run); avg != 0 && !raceEnabled {
				t.Fatalf("warm Run allocates %v objects, want 0", avg)
			}
			for tr, w := range want {
				if got[tr] != w {
					t.Fatalf("tree %d min = %d, want %d", tr, got[tr], w)
				}
			}
		})
	}
}
