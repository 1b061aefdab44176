package seqtree

import (
	"testing"

	"parmsf/internal/xrand"
)

// sumAgg aggregates the integer items of a subtree, exercising the Update
// hook the way the LSDS uses it (internal nodes combine child aggregates;
// leaf aggregates are read from the leaf itself).
func sumTree() *Tree[int, int] {
	t := &Tree[int, int]{}
	t.Update = func(n *Node[int, int]) {
		n.Agg = childSum(n.left) + childSum(n.right)
	}
	return t
}

func childSum(n *Node[int, int]) int {
	if n.IsLeaf() {
		return n.Item
	}
	return n.Agg
}

// collect returns the items of the sequence rooted at n.
func collect(n *Node[int, int]) []int {
	var out []int
	Leaves(n, func(l *Node[int, int]) bool {
		out = append(out, l.Item)
		return true
	})
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// leafAt returns the i'th leaf (0-based) of the sequence rooted at n.
func leafAt(n *Node[int, int], i int) *Node[int, int] {
	var found *Node[int, int]
	k := 0
	Leaves(n, func(l *Node[int, int]) bool {
		if k == i {
			found = l
			return false
		}
		k++
		return true
	})
	return found
}

func buildSeq(t *Tree[int, int], items []int) *Node[int, int] {
	var root *Node[int, int]
	for _, it := range items {
		leaf := t.NewLeaf(it)
		if root == nil {
			root = leaf
		} else {
			root = t.InsertAfter(Last(root), leaf)
		}
	}
	return root
}

func checkAgainst(t *testing.T, tr *Tree[int, int], root *Node[int, int], model []int) {
	t.Helper()
	if err := Validate(root); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	got := collect(root)
	if !eq(got, model) {
		t.Fatalf("sequence mismatch: got %v want %v", got, model)
	}
	if root != nil && !root.IsLeaf() {
		want := 0
		for _, v := range model {
			want += v
		}
		if root.Agg != want {
			t.Fatalf("aggregate mismatch: got %d want %d", root.Agg, want)
		}
	}
}

func TestBuildAndIterate(t *testing.T) {
	tr := sumTree()
	items := []int{5, 3, 8, 1, 9, 2, 7}
	root := buildSeq(tr, items)
	checkAgainst(t, tr, root, items)
}

func TestInsertBeforeEveryPosition(t *testing.T) {
	for pos := 0; pos < 6; pos++ {
		tr := sumTree()
		root := buildSeq(tr, []int{0, 1, 2, 3, 4, 5})
		at := leafAt(root, pos)
		root = tr.InsertBefore(at, tr.NewLeaf(99))
		want := append([]int{}, 0, 1, 2, 3, 4, 5)
		want = append(want[:pos], append([]int{99}, want[pos:]...)...)
		checkAgainst(t, tr, root, want)
	}
}

func TestDeleteEveryPosition(t *testing.T) {
	for pos := 0; pos < 7; pos++ {
		tr := sumTree()
		items := []int{0, 1, 2, 3, 4, 5, 6}
		root := buildSeq(tr, items)
		root = tr.DeleteLeaf(leafAt(root, pos))
		var want []int
		for i, v := range items {
			if i != pos {
				want = append(want, v)
			}
		}
		checkAgainst(t, tr, root, want)
	}
}

func TestDeleteToEmpty(t *testing.T) {
	tr := sumTree()
	root := buildSeq(tr, []int{1, 2, 3})
	for i := 0; i < 3; i++ {
		root = tr.DeleteLeaf(First(root))
	}
	if root != nil {
		t.Fatalf("expected empty tree, got %v", collect(root))
	}
}

func TestSplitBeforeEveryPosition(t *testing.T) {
	items := []int{10, 20, 30, 40, 50, 60, 70, 80}
	for pos := 0; pos < len(items); pos++ {
		tr := sumTree()
		root := buildSeq(tr, items)
		l, r := tr.SplitBefore(leafAt(root, pos))
		checkAgainst(t, tr, l, items[:pos])
		checkAgainst(t, tr, r, items[pos:])
	}
}

func TestJoinHeightGaps(t *testing.T) {
	// Join sequences of very different sizes in both orders.
	for _, sizes := range [][2]int{{1, 100}, {100, 1}, {2, 64}, {64, 2}, {31, 33}} {
		tr := sumTree()
		a := buildSeq(tr, seqInts(0, sizes[0]))
		b := buildSeq(tr, seqInts(1000, sizes[1]))
		root := tr.Join(a, b)
		want := append(seqInts(0, sizes[0]), seqInts(1000, sizes[1])...)
		checkAgainst(t, tr, root, want)
	}
}

func seqInts(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

func TestJoinNil(t *testing.T) {
	tr := sumTree()
	a := buildSeq(tr, []int{1, 2})
	if got := tr.Join(nil, a); got != a {
		t.Fatal("Join(nil, a) != a")
	}
	if got := tr.Join(a, nil); got != a {
		t.Fatal("Join(a, nil) != a")
	}
	if got := tr.Join(nil, nil); got != nil {
		t.Fatal("Join(nil, nil) != nil")
	}
}

func TestNextPrev(t *testing.T) {
	tr := sumTree()
	items := seqInts(0, 50)
	root := buildSeq(tr, items)
	l := First(root)
	for i := 0; i < 50; i++ {
		if l == nil {
			t.Fatalf("ran out of leaves at %d", i)
		}
		if l.Item != i {
			t.Fatalf("Next walk: got %d want %d", l.Item, i)
		}
		l = Next(l)
	}
	if l != nil {
		t.Fatal("Next past end not nil")
	}
	l = Last(root)
	for i := 49; i >= 0; i-- {
		if l.Item != i {
			t.Fatalf("Prev walk: got %d want %d", l.Item, i)
		}
		l = Prev(l)
	}
	if l != nil {
		t.Fatal("Prev past start not nil")
	}
}

func TestRefreshUp(t *testing.T) {
	tr := sumTree()
	root := buildSeq(tr, seqInts(0, 32))
	leaf := leafAt(root, 17)
	leaf.Item = 1000
	got := tr.RefreshUp(leaf)
	if got != root {
		t.Fatal("RefreshUp returned wrong root")
	}
	want := 0
	for i := 0; i < 32; i++ {
		want += i
	}
	want += 1000 - 17
	if root.Agg != want {
		t.Fatalf("aggregate after RefreshUp: got %d want %d", root.Agg, want)
	}
}

func TestOnCreateOnFree(t *testing.T) {
	created, freed := 0, 0
	tr := sumTree()
	tr.OnCreate = func(*Node[int, int]) { created++ }
	tr.OnFree = func(*Node[int, int]) { freed++ }
	root := buildSeq(tr, seqInts(0, 20))
	for root != nil {
		root = tr.DeleteLeaf(First(root))
	}
	if created == 0 {
		t.Fatal("OnCreate never called")
	}
	if created != freed+0 {
		// every internal node created must eventually be freed once the
		// tree is destroyed (rotations may create/free transiently)
		t.Fatalf("created %d != freed %d", created, freed)
	}
}

// TestRandomOps is the model-based property test: a pool of sequences is
// mutated by random inserts, deletes, splits and joins, and after every
// operation each tree must match its reference slice, pass validation, and
// have a correct root aggregate.
func TestRandomOps(t *testing.T) {
	rng := xrand.New(20180828)
	tr := sumTree()
	type seqPair struct {
		root  *Node[int, int]
		model []int
	}
	pool := []*seqPair{{nil, nil}}
	nextVal := 0
	for step := 0; step < 4000; step++ {
		s := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(10); {
		case op < 4: // insert at random position
			leaf := tr.NewLeaf(nextVal)
			if s.root == nil {
				s.root = leaf
				s.model = []int{nextVal}
			} else {
				pos := rng.Intn(len(s.model) + 1)
				if pos == len(s.model) {
					s.root = tr.InsertAfter(Last(s.root), leaf)
					s.model = append(s.model, nextVal)
				} else {
					s.root = tr.InsertBefore(leafAt(s.root, pos), leaf)
					s.model = append(s.model[:pos], append([]int{nextVal}, s.model[pos:]...)...)
				}
			}
			nextVal++
		case op < 6: // delete at random position
			if len(s.model) == 0 {
				continue
			}
			pos := rng.Intn(len(s.model))
			s.root = tr.DeleteLeaf(leafAt(s.root, pos))
			s.model = append(s.model[:pos], s.model[pos+1:]...)
		case op < 8: // split at random position, push the right part
			if len(s.model) < 2 {
				continue
			}
			pos := 1 + rng.Intn(len(s.model)-1)
			l, r := tr.SplitBefore(leafAt(s.root, pos))
			right := &seqPair{r, append([]int{}, s.model[pos:]...)}
			s.root, s.model = l, s.model[:pos]
			pool = append(pool, right)
		default: // join with another random sequence
			if len(pool) < 2 {
				continue
			}
			j := rng.Intn(len(pool))
			o := pool[j]
			if o == s {
				continue
			}
			s.root = tr.Join(s.root, o.root)
			s.model = append(s.model, o.model...)
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
		// Validate every few steps to keep the test fast but thorough.
		if step%7 == 0 {
			for _, p := range pool {
				checkAgainst(t, tr, p.root, p.model)
			}
		}
	}
	for _, p := range pool {
		checkAgainst(t, tr, p.root, p.model)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := sumTree()
	root := buildSeq(tr, seqInts(0, 1<<12))
	// AVL height bound: 1.44 * log2(n) + 2.
	if h := root.Height(); h > 20 {
		t.Fatalf("height %d too large for 4096 leaves", h)
	}
}

func TestLeafCount(t *testing.T) {
	tr := sumTree()
	root := buildSeq(tr, seqInts(0, 37))
	if got := LeafCount(root); got != 37 {
		t.Fatalf("LeafCount = %d, want 37", got)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	tr := sumTree()
	root := buildSeq(tr, seqInts(0, 1024))
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := rng.Intn(1024)
		leaf := leafAt(root, pos)
		root = tr.DeleteLeaf(leaf)
		root = tr.InsertAfter(Last(root), tr.NewLeaf(i))
	}
}

func BenchmarkSplitJoin(b *testing.B) {
	tr := sumTree()
	root := buildSeq(tr, seqInts(0, 4096))
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := 1 + rng.Intn(4094)
		l, r := tr.SplitBefore(leafAt(root, pos))
		root = tr.Join(l, r)
	}
}

func TestBeforePanicsAcrossTrees(t *testing.T) {
	tr := sumTree()
	a := buildSeq(tr, []int{1, 2, 3})
	b := buildSeq(tr, []int{4, 5, 6})
	defer func() {
		if recover() == nil {
			t.Fatal("Before across trees did not panic")
		}
	}()
	Before(First(a), First(b))
}

func TestBeforeAdjacentAndEnds(t *testing.T) {
	tr := sumTree()
	root := buildSeq(tr, seqInts(0, 9))
	first, last := First(root), Last(root)
	if !Before(first, last) || Before(last, first) {
		t.Fatal("ends ordered wrong")
	}
	if Before(first, first) {
		t.Fatal("Before(x, x) must be false")
	}
	for l := first; Next(l) != nil; l = Next(l) {
		if !Before(l, Next(l)) {
			t.Fatalf("adjacent order broken at %d", l.Item)
		}
	}
}

// TestSplitJoinAllocs pins the steady state of split and join: internal
// nodes come from the tree's free list and SplitBefore records its root
// path in a stack array, so once the free list has warmed, cutting a
// 1,024-leaf sequence at several positions and joining it back allocates
// nothing.
func TestSplitJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	tr := sumTree()
	items := make([]int, 1024)
	for i := range items {
		items[i] = i
	}
	root := buildSeq(tr, items)
	var at []*Node[int, int]
	for _, i := range []int{1, 255, 512, 700, 1023} {
		at = append(at, leafAt(root, i))
	}
	cycle := func() {
		for _, v := range at {
			l, r := tr.SplitBefore(v)
			root = tr.Join(l, r)
		}
	}
	cycle() // warm the free list
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm split+join cycle allocates %v objects, want 0", avg)
	}
	checkAgainst(t, tr, root, items)
}
