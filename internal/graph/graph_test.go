package graph

import (
	"testing"

	"parmsf/internal/xrand"
)

func TestInsertFindDelete(t *testing.T) {
	g := New(5, 3)
	id, err := g.Insert(1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Find(1, 2) != id || g.Find(2, 1) != id {
		t.Fatal("Find did not locate the edge in both directions")
	}
	if u, v := g.Ends(id); u != 1 || v != 2 || g.Weight(id) != 10 {
		t.Fatalf("edge %d reads (%d,%d;w=%d), want (1,2;w=10)", id, u, v, g.Weight(id))
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if got, err := g.Delete(2, 1); err != nil || got != id {
		t.Fatalf("Delete = (%d, %v), want (%d, nil)", got, err, id)
	}
	if g.Find(1, 2) >= 0 || g.M() != 0 {
		t.Fatal("edge survived deletion")
	}
	if u, v := g.Ends(id); u != 1 || v != 2 || g.Weight(id) != 10 {
		t.Fatal("deleted edge's endpoints or weight changed before its ID was reused")
	}
}

func TestErrors(t *testing.T) {
	g := New(4, 3)
	if id, err := g.Insert(0, 0, 1); err != ErrSelfLoop || id != -1 {
		t.Fatalf("self loop: (%d, %v)", id, err)
	}
	if _, err := g.Insert(0, 9, 1); err != ErrBadVertex {
		t.Fatalf("bad vertex: %v", err)
	}
	if _, err := g.Insert(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Insert(1, 0, 2); err != ErrExists {
		t.Fatalf("duplicate: %v", err)
	}
	if id, err := g.Delete(2, 3); err != ErrMissing || id != -1 {
		t.Fatalf("missing delete: (%d, %v)", id, err)
	}
	if g.Find(0, 9) != -1 {
		t.Fatal("Find out of range did not return -1")
	}
}

func TestDegreeBound(t *testing.T) {
	g := New(5, 3)
	mustInsert(t, g, 0, 1)
	mustInsert(t, g, 0, 2)
	mustInsert(t, g, 0, 3)
	if _, err := g.Insert(0, 4, 1); err != ErrDegree {
		t.Fatalf("degree bound: %v", err)
	}
	if _, err := g.Insert(4, 0, 1); err != ErrDegree {
		t.Fatalf("degree bound, far endpoint: %v", err)
	}
	if g.Degree(0) != 3 || g.Degree(4) != 0 {
		t.Fatalf("degrees (%d, %d) after rejected inserts, want (3, 0)", g.Degree(0), g.Degree(4))
	}
}

func mustInsert(t *testing.T, g *G, u, v int) int32 {
	t.Helper()
	id, err := g.Insert(u, v, 1)
	if err != nil {
		t.Fatalf("Insert(%d,%d): %v", u, v, err)
	}
	return id
}

func TestIDRecycling(t *testing.T) {
	g := New(10, 3)
	id1 := mustInsert(t, g, 0, 1)
	if _, err := g.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if id2 := mustInsert(t, g, 2, 3); id2 != id1 {
		t.Fatalf("ID not recycled: got %d want %d", id2, id1)
	}
	if g.IDBound() != 1 {
		t.Fatalf("IDBound = %d, want 1", g.IDBound())
	}
	if u, v := g.Ends(id1); u != 2 || v != 3 {
		t.Fatalf("recycled ID reads (%d,%d), want (2,3)", u, v)
	}
}

// TestRandomConsistency drives random churn on a degree-3 graph and checks
// the graph against a map reference after each step: M; Degree and Adj at
// every vertex (each incidence once, live, with the right far endpoint and
// ID); Find in both directions, the endpoints and Weight by ID of every
// live edge; and the IDs Insert and Delete return (Insert reuses the last
// freed ID first, else takes IDBound). At the end, Edges must visit exactly
// the live IDs, in increasing order.
func TestRandomConsistency(t *testing.T) {
	const n = 40
	g := New(n, 3)
	rng := xrand.New(17)
	type pair struct{ u, v int }
	type rec struct {
		id int32
		w  int64
	}
	live := map[pair]rec{}
	var freed []int32 // reference free list: the next Insert pops the last
	norm := func(u, v int) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	deg := func(x int) int {
		d := 0
		for p := range live {
			if p.u == x || p.v == x {
				d++
			}
		}
		return d
	}
	for step := 0; step < 5000; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		p := norm(u, v)
		_, isLive := live[p]
		if rng.Bool() {
			want := int32(g.IDBound())
			if k := len(freed); k > 0 {
				want = freed[k-1]
			}
			id, err := g.Insert(u, v, int64(step))
			switch {
			case isLive && err != ErrExists:
				t.Fatalf("insert of live edge: %v", err)
			case !isLive && err == nil:
				if id != want {
					t.Fatalf("step %d: Insert handed out ID %d, want %d", step, id, want)
				}
				if k := len(freed); k > 0 {
					freed = freed[:k-1]
				}
				live[p] = rec{id, int64(step)}
			case !isLive && err == ErrDegree:
				if deg(u) < 3 && deg(v) < 3 {
					t.Fatalf("step %d: ErrDegree at degrees (%d, %d)", step, deg(u), deg(v))
				}
			case !isLive:
				t.Fatalf("unexpected insert error: %v", err)
			}
		} else {
			id, err := g.Delete(u, v)
			if isLive != (err == nil) {
				t.Fatalf("delete mismatch: live=%v err=%v", isLive, err)
			}
			if isLive {
				if id != live[p].id {
					t.Fatalf("step %d: Delete returned ID %d, want %d", step, id, live[p].id)
				}
				freed = append(freed, id)
			}
			delete(live, p)
		}
		if g.M() != len(live) {
			t.Fatalf("M = %d, want %d", g.M(), len(live))
		}
		var degs [n]int
		for q, r := range live {
			degs[q.u]++
			degs[q.v]++
			for _, id := range []int32{g.Find(q.u, q.v), g.Find(q.v, q.u)} {
				if id != r.id {
					t.Fatalf("step %d: Find(%v) = %d, want %d", step, q, id, r.id)
				}
			}
			a, b := g.Ends(r.id)
			if norm(int(a), int(b)) != q || g.Weight(r.id) != r.w {
				t.Fatalf("step %d: edge %d reads (%d,%d;w=%d), want %v w=%d", step, r.id, a, b, g.Weight(r.id), q, r.w)
			}
		}
		if _, ok := live[p]; !ok && (g.Find(u, v) != -1 || g.Find(v, u) != -1) {
			t.Fatalf("step %d: Find(%d,%d) finds a deleted edge", step, u, v)
		}
		for x := 0; x < n; x++ {
			if g.Degree(x) != degs[x] {
				t.Fatalf("step %d: Degree(%d) = %d, want %d", step, x, g.Degree(x), degs[x])
			}
			seen := map[pair]bool{}
			for _, h := range g.Adj(int32(x)) {
				q := norm(x, int(h.To))
				if r, ok := live[q]; !ok || r.id != h.ID || seen[q] {
					t.Fatalf("step %d: Adj(%d) holds %+v", step, x, h)
				}
				seen[q] = true
			}
		}
	}
	var ids []int32
	g.Edges(func(id int32) bool { ids = append(ids, id); return true })
	if len(ids) != len(live) {
		t.Fatalf("Edges visited %d IDs, want %d", len(ids), len(live))
	}
	for i, id := range ids {
		a, b := g.Ends(id)
		if r, ok := live[norm(int(a), int(b))]; !ok || r.id != id || (i > 0 && ids[i-1] >= id) {
			t.Fatalf("Edges visited %v: ID %d out of order or not live", ids, id)
		}
	}
}

// TestAdjSwapOnDelete pins the incidence order: Insert appends, and Delete
// moves the vertex's last incidence into the freed slot, at both endpoints.
func TestAdjSwapOnDelete(t *testing.T) {
	g := New(6, 3)
	e1 := mustInsert(t, g, 0, 1)
	e2 := mustInsert(t, g, 0, 2)
	e3 := mustInsert(t, g, 0, 3)
	mustInsert(t, g, 1, 4)
	mustInsert(t, g, 1, 5)
	want := func(v int32, hs ...Half) {
		t.Helper()
		got := g.Adj(v)
		if len(got) != len(hs) {
			t.Fatalf("Adj(%d) = %v, want %v", v, got, hs)
		}
		for i := range hs {
			if got[i] != hs[i] {
				t.Fatalf("Adj(%d) = %v, want %v", v, got, hs)
			}
		}
	}
	want(0, Half{1, e1}, Half{2, e2}, Half{3, e3})
	want(1, Half{0, e1}, Half{4, 3}, Half{5, 4})
	if _, err := g.Delete(1, 0); err != nil {
		t.Fatal(err)
	}
	want(0, Half{3, e3}, Half{2, e2})
	want(1, Half{5, 4}, Half{4, 3})
	if _, err := g.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	want(0, Half{3, e3})
	want(2)
}

// TestIDReuseRefreshesWeight checks that a recycled edge ID reads the new
// edge's weight, not the deleted one's.
func TestIDReuseRefreshesWeight(t *testing.T) {
	g := New(4, 3)
	id1, err := g.Insert(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(id1) != 5 {
		t.Fatalf("Weight = %d, want 5", g.Weight(id1))
	}
	if _, err := g.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	id2, err := g.Insert(2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 || g.Weight(id2) != 9 {
		t.Fatalf("reused id %d (was %d) weighs %d, want 9", id2, id1, g.Weight(id2))
	}
}

func TestNewRejectsUnboundedDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(5, 0) did not panic")
		}
	}()
	New(5, 0)
}

// TestWarmChurnAllocs pins the graph's steady state: once the ID bound and
// the free list have reached their peak, an insert/delete churn that stays
// below that bound allocates nothing, since an edge is only an ID into
// preallocated arrays.
func TestWarmChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	const n = 64
	g := New(n, 3)
	for v := 0; v+1 < n; v++ {
		mustInsert(t, g, v, v+1)
	}
	churn := func() {
		for v := 0; v+1 < n; v += 2 {
			if _, err := g.Delete(v, v+1); err != nil {
				panic(err)
			}
		}
		for v := 0; v+2 < n; v += 4 {
			if _, err := g.Insert(v, v+2, int64(v)); err != nil {
				panic(err)
			}
		}
		for v := 0; v+2 < n; v += 4 {
			if _, err := g.Delete(v+2, v); err != nil {
				panic(err)
			}
		}
		for v := 0; v+1 < n; v += 2 {
			if _, err := g.Insert(v, v+1, int64(v)); err != nil {
				panic(err)
			}
		}
	}
	churn() // grows the free list to its peak
	bound := g.IDBound()
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("warm insert/delete churn allocates %v objects, want 0", avg)
	}
	if g.IDBound() != bound || g.M() != n-1 {
		t.Fatalf("churn moved IDBound %d -> %d or M to %d", bound, g.IDBound(), g.M())
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	g := New(1024, 3)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(1024), rng.Intn(1024)
		if u == v {
			continue
		}
		if g.Find(u, v) >= 0 {
			g.Delete(u, v)
		} else {
			g.Insert(u, v, int64(i))
		}
	}
}
