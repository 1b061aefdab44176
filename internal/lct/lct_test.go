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
	e01 := f.Link(0, 1, 5, 7)
	e12 := f.Link(1, 2, 3, 8)
	if !f.Connected(0, 2) {
		t.Fatal("0 and 2 should be connected")
	}
	if m := f.PathMaxEdge(0, 2); m != e01 || m.ID != 7 {
		t.Fatalf("path max = (%d,%d,%d) id %d, want edge (0,1) id 7", m.U, m.V, m.W, m.ID)
	}
	f.Cut(e01)
	if f.Connected(0, 2) {
		t.Fatal("0 and 2 still connected after cut")
	}
	if !f.Connected(1, 2) {
		t.Fatal("1 and 2 disconnected by unrelated cut")
	}
	_ = e12
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
	edges := make([]*Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = f.Link(i, i+1, int64(i+1), int32(i))
	}
	for a := 0; a < n; a += 7 {
		for b := a + 1; b < n; b += 5 {
			got := f.PathMaxEdge(a, b)
			if got.W != int64(b) || got.ID != int32(b-1) {
				t.Fatalf("PathMax(%d,%d) = w %d id %d, want w %d id %d", a, b, got.W, got.ID, b, b-1)
			}
		}
	}
}

func TestRandomAgainstReference(t *testing.T) {
	const n = 60
	rng := xrand.New(99)
	f := New(n)
	ref := newRef(n)
	type live struct {
		e    *Edge
		u, v int
	}
	var edges []live
	for step := 0; step < 6000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // try to link a random pair
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || ref.connected(u, v) {
				continue
			}
			w := rng.Int63() % 1000
			e := f.Link(u, v, w, int32(step))
			ref.link(u, v, w)
			edges = append(edges, live{e, u, v})
		case 2: // cut a random live edge
			if len(edges) == 0 {
				continue
			}
			i := rng.Intn(len(edges))
			f.Cut(edges[i].e)
			ref.cut(edges[i].u, edges[i].v)
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
		case 3: // query
			u, v := rng.Intn(n), rng.Intn(n)
			want := ref.connected(u, v)
			if got := f.Connected(u, v); got != want {
				t.Fatalf("step %d: Connected(%d,%d) = %v, want %v", step, u, v, got, want)
			}
			if want && u != v {
				wm, _ := ref.pathMax(u, v)
				if gm := f.PathMaxEdge(u, v); gm.W != wm {
					t.Fatalf("step %d: PathMax(%d,%d) = %d, want %d", step, u, v, gm.W, wm)
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
	var es []*Edge
	for i := 1; i < n; i++ {
		es = append(es, f.Link(0, i, int64(i), int32(i)))
	}
	if got := f.PathMaxEdge(5, 7); got.W != 7 {
		t.Fatalf("star path max = %d, want 7", got.W)
	}
	for _, e := range es {
		f.Cut(e)
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

func BenchmarkLinkCut(b *testing.B) {
	const n = 1 << 12
	f := New(n)
	rng := xrand.New(5)
	var edges []*Edge
	for i := 1; i < n; i++ {
		edges = append(edges, f.Link(rng.Intn(i), i, rng.Int63()%1000, int32(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(edges))
		e := edges[j]
		u, v, w := e.U, e.V, e.W
		f.Cut(e)
		edges[j] = f.Link(u, v, w, int32(j))
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
