package workload

import "testing"

func TestRandomSparse(t *testing.T) {
	es := RandomSparse(100, 150, 1)
	if len(es) != 150 {
		t.Fatalf("got %d edges, want 150", len(es))
	}
	seen := map[[2]int]bool{}
	for _, e := range es {
		if e.U == e.V || e.U > e.V {
			t.Fatalf("bad edge %+v", e)
		}
		k := [2]int{e.U, e.V}
		if seen[k] {
			t.Fatalf("duplicate edge %+v", e)
		}
		seen[k] = true
		if e.W <= 0 {
			t.Fatalf("non-positive weight %+v", e)
		}
	}
}

func TestRandomSparseDeterministic(t *testing.T) {
	a := RandomSparse(64, 96, 7)
	b := RandomSparse(64, 96, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := RandomSparse(64, 96, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestDegreeBounded(t *testing.T) {
	es := DegreeBounded(60, 85, 3, 2)
	deg := make([]int, 60)
	for _, e := range es {
		deg[e.U]++
		deg[e.V]++
	}
	for v, d := range deg {
		if d > 3 {
			t.Fatalf("vertex %d degree %d > 3", v, d)
		}
	}
	if len(es) < 60 {
		t.Fatalf("only %d edges generated", len(es))
	}
}

func TestPrefAttachSkew(t *testing.T) {
	es := PrefAttach(200, 2, 5)
	deg := make([]int, 200)
	for _, e := range es {
		deg[e.U]++
		deg[e.V]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 6 {
		t.Fatalf("expected a skewed degree distribution, max degree %d", max)
	}
}

func TestChurnConsistency(t *testing.T) {
	base := DegreeBounded(40, 50, 3, 9)
	s := Churn(40, base, 500, true, 10)
	live := map[[2]int]bool{}
	deg := make([]int, 40)
	norm := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i, op := range s.Ops {
		k := norm(op.U, op.V)
		switch op.Kind {
		case OpInsert:
			if live[k] {
				t.Fatalf("op %d: insert of live edge %v", i, k)
			}
			live[k] = true
			deg[op.U]++
			deg[op.V]++
			if deg[op.U] > 3 || deg[op.V] > 3 {
				t.Fatalf("op %d: degree bound broken", i)
			}
		case OpDelete:
			if !live[k] {
				t.Fatalf("op %d: delete of dead edge %v", i, k)
			}
			delete(live, k)
			deg[op.U]--
			deg[op.V]--
		}
	}
}
