package lct

import (
	"testing"

	"parmsf/internal/xrand"
)

// refForest is a naive reference: adjacency lists with BFS connectivity and
// DFS path-max, used to check the link-cut tree under random operations.
type refForest struct {
	n   int
	adj map[int]map[int]int64 // u -> v -> weight
}

func newRef(n int) *refForest {
	r := &refForest{n: n, adj: make(map[int]map[int]int64)}
	return r
}

func (r *refForest) link(u, v int, w int64) {
	if r.adj[u] == nil {
		r.adj[u] = make(map[int]int64)
	}
	if r.adj[v] == nil {
		r.adj[v] = make(map[int]int64)
	}
	r.adj[u][v] = w
	r.adj[v][u] = w
}

func (r *refForest) cut(u, v int) {
	delete(r.adj[u], v)
	delete(r.adj[v], u)
}

func (r *refForest) connected(u, v int) bool {
	if u == v {
		return true
	}
	seen := map[int]bool{u: true}
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for y := range r.adj[x] {
			if y == v {
				return true
			}
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return false
}

// pathMax returns the maximum edge weight on the u-v path (forest => unique).
func (r *refForest) pathMax(u, v int) (int64, bool) {
	type frame struct {
		node int
		max  int64
	}
	const negInf = int64(-1) << 62
	seen := map[int]bool{u: true}
	stack := []frame{{u, negInf}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.node == v {
			return f.max, true
		}
		for y, w := range r.adj[f.node] {
			if !seen[y] {
				seen[y] = true
				m := f.max
				if w > m {
					m = w
				}
				stack = append(stack, frame{y, m})
			}
		}
	}
	return 0, false
}

func TestLinkCutBasic(t *testing.T) {
	f := New(4)
	if f.Connected(0, 1) {
		t.Fatal("fresh vertices connected")
	}
	f.Link(0, 1, 5, 7)
	f.Link(1, 2, 3, 8)
	if !f.Connected(0, 2) {
		t.Fatal("0 and 2 should be connected")
	}
	if id := f.PathMaxEdge(0, 2); id != 7 {
		t.Fatalf("path max = edge %d, want 7", id)
	}
	if u, v, w, ok := f.Linked(7); !ok || u != 0 || v != 1 || w != 5 {
		t.Fatalf("Linked(7) = (%d,%d,%d,%v), want (0,1,5,true)", u, v, w, ok)
	}
	f.Cut(7)
	if _, _, _, ok := f.Linked(7); ok {
		t.Fatal("edge 7 still linked after its cut")
	}
	if _, _, _, ok := f.Linked(100); ok {
		t.Fatal("an ID beyond every link reads as linked")
	}
	if f.Connected(0, 2) {
		t.Fatal("0 and 2 still connected after cut")
	}
	if !f.Connected(1, 2) {
		t.Fatal("1 and 2 disconnected by unrelated cut")
	}
}

// TestRelinkIDElsewhere cuts an ID and links it again with other endpoints
// and a different weight: the reused node must carry nothing of the old
// edge into path-max answers or the per-ID read.
func TestRelinkIDElsewhere(t *testing.T) {
	f := New(6)
	f.Link(0, 1, 9, 0) // heaviest on 0-1-2
	f.Link(1, 2, 4, 1)
	f.Link(3, 4, 2, 2)
	f.Cut(0)
	f.Link(2, 3, 1, 0) // ID 0 again: now the lightest, on another pair
	if f.Connected(0, 1) {
		t.Fatal("0 and 1 still connected after ID 0's cut")
	}
	if u, v, w, ok := f.Linked(0); !ok || u != 2 || v != 3 || w != 1 {
		t.Fatalf("Linked(0) = (%d,%d,%d,%v), want (2,3,1,true)", u, v, w, ok)
	}
	if id := f.PathMaxEdge(1, 4); id != 1 {
		t.Fatalf("PathMax(1,4) = edge %d, want 1", id)
	}
	if id := f.PathMaxEdge(2, 3); id != 0 {
		t.Fatalf("PathMax(2,3) = edge %d, want 0", id)
	}
	f.Link(0, 5, 3, 3)
	f.Cut(1)
	f.Link(0, 4, 7, 1) // ID 1 again, now the heaviest on 5-0-4-3-2
	if id := f.PathMaxEdge(5, 2); id != 1 {
		t.Fatalf("PathMax(5,2) = edge %d, want 1", id)
	}
}

func TestLinkPanicsOnCycle(t *testing.T) {
	f := New(3)
	f.Link(0, 1, 1, 0)
	f.Link(1, 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Link forming a cycle did not panic")
		}
	}()
	f.Link(0, 2, 3, 2)
}

func TestPathMaxChain(t *testing.T) {
	// Chain 0-1-2-...-63 with increasing weights; max on any subpath is the
	// weight of the highest-index edge in the subpath.
	const n = 64
	f := New(n)
	for i := 0; i < n-1; i++ {
		f.Link(i, i+1, int64(i+1), int32(i))
	}
	for a := 0; a < n; a += 7 {
		for b := a + 1; b < n; b += 5 {
			if id := f.PathMaxEdge(a, b); id != int32(b-1) {
				t.Fatalf("PathMax(%d,%d) = edge %d, want %d", a, b, id, b-1)
			}
		}
	}
}

// TestRandomAgainstReference runs random links, cuts and queries against
// the naive reference. IDs come from a free list, last cut first, so cut
// IDs are relinked elsewhere.
func TestRandomAgainstReference(t *testing.T) {
	const n = 60
	rng := xrand.New(99)
	f := New(n)
	ref := newRef(n)
	var live, free []int32
	for step := 0; step < 6000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // try to link a random pair
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || ref.connected(u, v) {
				continue
			}
			id := int32(len(live))
			if k := len(free); k > 0 {
				id, free = free[k-1], free[:k-1]
			}
			w := rng.Int63() % 1000
			f.Link(u, v, w, id)
			ref.link(u, v, w)
			live = append(live, id)
		case 2: // cut a random live edge
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			u, v, _, ok := f.Linked(id)
			if !ok {
				t.Fatalf("step %d: live edge %d reads as not linked", step, id)
			}
			f.Cut(id)
			ref.cut(u, v)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			free = append(free, id)
		case 3: // query
			u, v := rng.Intn(n), rng.Intn(n)
			want := ref.connected(u, v)
			if got := f.Connected(u, v); got != want {
				t.Fatalf("step %d: Connected(%d,%d) = %v, want %v", step, u, v, got, want)
			}
			if want && u != v {
				wm, _ := ref.pathMax(u, v)
				if _, _, gm, _ := f.Linked(f.PathMaxEdge(u, v)); gm != wm {
					t.Fatalf("step %d: PathMax(%d,%d) = %d, want %d", step, u, v, gm, wm)
				}
			}
		}
	}
}

func TestStarAndRelink(t *testing.T) {
	// Build a star, tear it down, rebuild as a path; exercises makeRoot
	// heavily.
	const n = 40
	f := New(n)
	for i := 1; i < n; i++ {
		f.Link(0, i, int64(i), int32(i))
	}
	if _, _, w, _ := f.Linked(f.PathMaxEdge(5, 7)); w != 7 {
		t.Fatalf("star path max = %d, want 7", w)
	}
	for i := 1; i < n; i++ {
		f.Cut(int32(i))
	}
	for i := 1; i < n; i++ {
		if f.Connected(0, i) {
			t.Fatalf("vertex %d still connected after teardown", i)
		}
	}
	for i := 0; i < n-1; i++ {
		f.Link(i, i+1, 1, int32(i))
	}
	if !f.Connected(0, n-1) {
		t.Fatal("path endpoints not connected after rebuild")
	}
}

// TestCutLinkAllocs pins a warm Cut+Link of a reused ID at 0 allocations:
// the cut edge's node is reused, and the ID table does not grow.
func TestCutLinkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 256
	f := New(n)
	for i := 1; i < n; i++ {
		f.Link(i/2, i, int64(i), int32(i))
	}
	rng := xrand.New(3)
	if got := testing.AllocsPerRun(200, func() {
		id := int32(1 + rng.Intn(n-1))
		u, v, w, _ := f.Linked(id)
		f.Cut(id)
		f.Link(u, v, w, id)
	}); got != 0 {
		t.Fatalf("warm Cut+Link allocated %.1f objects, want 0", got)
	}
}

func BenchmarkLinkCut(b *testing.B) {
	const n = 1 << 12
	f := New(n)
	rng := xrand.New(5)
	for i := 1; i < n; i++ {
		f.Link(rng.Intn(i), i, rng.Int63()%1000, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int32(1 + rng.Intn(n-1))
		u, v, w, _ := f.Linked(id)
		f.Cut(id)
		f.Link(u, v, w, id)
	}
}

func BenchmarkPathMax(b *testing.B) {
	const n = 1 << 12
	f := New(n)
	for i := 0; i < n-1; i++ {
		f.Link(i, i+1, int64(i), int32(i))
	}
	rng := xrand.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		f.PathMaxEdge(u, v)
	}
}
