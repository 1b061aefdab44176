package graph

import (
	"testing"

	"parmsf/internal/xrand"
)

func TestInsertFindDelete(t *testing.T) {
	g := New(5, 3)
	e, err := g.Insert(1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Find(1, 2) != e || g.Find(2, 1) != e {
		t.Fatal("Find did not locate the edge in both directions")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if _, err := g.Delete(2, 1); err != nil {
		t.Fatal(err)
	}
	if g.Find(1, 2) != nil || g.M() != 0 {
		t.Fatal("edge survived deletion")
	}
}

func TestErrors(t *testing.T) {
	g := New(4, 3)
	if _, err := g.Insert(0, 0, 1); err != ErrSelfLoop {
		t.Fatalf("self loop: %v", err)
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
	if _, err := g.Delete(2, 3); err != ErrMissing {
		t.Fatalf("missing delete: %v", err)
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

func mustInsert(t *testing.T, g *G, u, v int) *Edge {
	t.Helper()
	e, err := g.Insert(u, v, 1)
	if err != nil {
		t.Fatalf("Insert(%d,%d): %v", u, v, err)
	}
	return e
}

func TestIDRecycling(t *testing.T) {
	g := New(10, 3)
	e1 := mustInsert(t, g, 0, 1)
	id1 := e1.ID
	if _, err := g.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	e2 := mustInsert(t, g, 2, 3)
	if e2.ID != id1 {
		t.Fatalf("ID not recycled: got %d want %d", e2.ID, id1)
	}
	if g.IDBound() != 1 {
		t.Fatalf("IDBound = %d, want 1", g.IDBound())
	}
	if g.ByID(id1) != e2 {
		t.Fatal("ByID mismatch after recycle")
	}
}

func TestIncidentAndOther(t *testing.T) {
	g := New(4, 3)
	e1 := mustInsert(t, g, 0, 1)
	e2 := mustInsert(t, g, 0, 2)
	seen := map[*Edge]bool{}
	g.Incident(0, func(e *Edge) bool { seen[e] = true; return true })
	if !seen[e1] || !seen[e2] || len(seen) != 2 {
		t.Fatalf("Incident(0) saw %d edges, want {e1,e2}", len(seen))
	}
	if e1.Other(0) != 1 || e1.Other(1) != 0 {
		t.Fatal("Other is wrong")
	}
}

// TestRandomConsistency drives random churn on a degree-3 graph and checks
// every query against a map reference after each step: M, Degree, Find in
// both directions, Incident and Adj (each incidence once, with the right far
// endpoint), and Weight by ID.
func TestRandomConsistency(t *testing.T) {
	const n = 40
	g := New(n, 3)
	rng := xrand.New(17)
	type pair struct{ u, v int }
	live := map[pair]int64{}
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
			_, err := g.Insert(u, v, int64(step))
			switch {
			case isLive && err != ErrExists:
				t.Fatalf("insert of live edge: %v", err)
			case !isLive && err == nil:
				live[p] = int64(step)
			case !isLive && err == ErrDegree:
				if deg(u) < 3 && deg(v) < 3 {
					t.Fatalf("step %d: ErrDegree at degrees (%d, %d)", step, deg(u), deg(v))
				}
			case !isLive:
				t.Fatalf("unexpected insert error: %v", err)
			}
		} else {
			_, err := g.Delete(u, v)
			if isLive != (err == nil) {
				t.Fatalf("delete mismatch: live=%v err=%v", isLive, err)
			}
			delete(live, p)
		}
		if g.M() != len(live) {
			t.Fatalf("M = %d, want %d", g.M(), len(live))
		}
		for _, x := range []int{u, v} {
			if g.Degree(x) != deg(x) {
				t.Fatalf("step %d: Degree(%d) = %d, want %d", step, x, g.Degree(x), deg(x))
			}
			seen := map[pair]bool{}
			g.Incident(x, func(e *Edge) bool {
				q := norm(int(e.U), int(e.V))
				if w, ok := live[q]; !ok || w != e.W || seen[q] || (q.u != x && q.v != x) {
					t.Fatalf("step %d: Incident(%d) yields %v", step, x, e)
				}
				seen[q] = true
				return true
			})
			if len(seen) != deg(x) {
				t.Fatalf("step %d: Incident(%d) saw %d edges, want %d", step, x, len(seen), deg(x))
			}
			for _, h := range g.Adj(int32(x)) {
				e := g.ByID(h.ID)
				if e == nil || e.Other(int32(x)) != h.To || g.Weight(h.ID) != e.W {
					t.Fatalf("step %d: Adj(%d) holds %+v, edge %v", step, x, h, e)
				}
			}
		}
		w, ok := live[p]
		for _, e := range []*Edge{g.Find(u, v), g.Find(v, u)} {
			if (e != nil) != ok || (ok && (e.W != w || norm(int(e.U), int(e.V)) != p)) {
				t.Fatalf("step %d: Find(%d,%d) = %v, live %v", step, u, v, e, ok)
			}
		}
	}
	count := 0
	g.Edges(func(e *Edge) bool { count++; return true })
	if count != len(live) {
		t.Fatalf("Edges iterated %d, want %d", count, len(live))
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
	want(0, Half{1, e1.ID}, Half{2, e2.ID}, Half{3, e3.ID})
	want(1, Half{0, e1.ID}, Half{4, 3}, Half{5, 4})
	if _, err := g.Delete(1, 0); err != nil {
		t.Fatal(err)
	}
	want(0, Half{3, e3.ID}, Half{2, e2.ID})
	want(1, Half{5, 4}, Half{4, 3})
	if _, err := g.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	want(0, Half{3, e3.ID})
	want(2)
	var order []int32
	g.Incident(1, func(e *Edge) bool { order = append(order, e.Other(1)); return true })
	if len(order) != 2 || order[0] != 5 || order[1] != 4 {
		t.Fatalf("Incident(1) order %v, want [5 4]", order)
	}
}

// TestIDReuseRefreshesWeight checks that a recycled edge ID reads the new
// edge's weight, not the deleted one's.
func TestIDReuseRefreshesWeight(t *testing.T) {
	g := New(4, 3)
	e1, err := g.Insert(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(e1.ID) != 5 {
		t.Fatalf("Weight = %d, want 5", g.Weight(e1.ID))
	}
	if _, err := g.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	e2, err := g.Insert(2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID != e1.ID || g.Weight(e2.ID) != 9 {
		t.Fatalf("reused id %d (was %d) weighs %d, want 9", e2.ID, e1.ID, g.Weight(e2.ID))
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

func BenchmarkInsertDelete(b *testing.B) {
	g := New(1024, 3)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(1024), rng.Intn(1024)
		if u == v {
			continue
		}
		if g.Find(u, v) != nil {
			g.Delete(u, v)
		} else {
			g.Insert(u, v, int64(i))
		}
	}
}
