package core

import (
	"sort"
	"testing"

	"parmsf/internal/graph"
	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

// kruskal recomputes the MSF weight and edge count of the current graph by
// sorting and union-find — the ground truth for every engine state.
func kruskal(g *graph.G) (Weight, int) {
	type ed struct {
		u, v int
		w    Weight
	}
	var edges []ed
	g.Edges(func(id int32) bool {
		u, v := g.Ends(id)
		edges = append(edges, ed{int(u), int(v), g.Weight(id)})
		return true
	})
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total Weight
	count := 0
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			total += e.w
			count++
		}
	}
	return total, count
}

// forestEdgeSet returns the sorted (u,v) pairs of the engine's forest.
func forestEdgeSet(m *MSF) [][2]int {
	var out [][2]int
	m.ForestEdges(func(u, v int, w Weight) bool {
		if u > v {
			u, v = v, u
		}
		out = append(out, [2]int{u, v})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func checkAll(t *testing.T, m *MSF) {
	t.Helper()
	if err := m.VerifyTours(); err != nil {
		t.Fatalf("%v\n%s", err, m.DebugString())
	}
	if err := m.Store().CheckInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, m.DebugString())
	}
	wantW, wantN := kruskal(m.Graph())
	if m.Weight() != wantW || m.ForestSize() != wantN {
		t.Fatalf("forest (w=%d, n=%d), kruskal (w=%d, n=%d)\n%s",
			m.Weight(), m.ForestSize(), wantW, wantN, m.DebugString())
	}
}

func TestEmpty(t *testing.T) {
	m := NewMSF(10, Config{}, SeqCharger{})
	checkAll(t, m)
	if m.Connected(0, 1) {
		t.Fatal("isolated vertices connected")
	}
	if !m.Connected(3, 3) {
		t.Fatal("vertex not connected to itself")
	}
}

func TestSingleEdge(t *testing.T) {
	m := NewMSF(4, Config{}, SeqCharger{})
	if err := m.InsertEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	checkAll(t, m)
	if !m.Connected(0, 1) || m.Weight() != 5 {
		t.Fatalf("weight=%d connected=%v", m.Weight(), m.Connected(0, 1))
	}
	if err := m.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	checkAll(t, m)
	if m.Connected(0, 1) {
		t.Fatal("still connected after delete")
	}
}

func TestTriangleSwap(t *testing.T) {
	// Insert a triangle: the heaviest edge must stay out of the forest.
	m := NewMSF(3, Config{}, SeqCharger{})
	mustIns(t, m, 0, 1, 10)
	mustIns(t, m, 1, 2, 20)
	mustIns(t, m, 0, 2, 15) // creates cycle; 20 should be evicted
	checkAll(t, m)
	if m.Weight() != 25 {
		t.Fatalf("weight = %d, want 25", m.Weight())
	}
	set := forestEdgeSet(m)
	want := [][2]int{{0, 1}, {0, 2}}
	if len(set) != 2 || set[0] != want[0] || set[1] != want[1] {
		t.Fatalf("forest = %v, want %v", set, want)
	}
}

func TestReplacementOnDelete(t *testing.T) {
	// Path 0-1-2 plus a heavier parallel path; deleting a path edge must
	// pull in the replacement.
	m := NewMSF(4, Config{}, SeqCharger{})
	mustIns(t, m, 0, 1, 1)
	mustIns(t, m, 1, 2, 2)
	mustIns(t, m, 2, 3, 3)
	mustIns(t, m, 0, 3, 100) // non-tree edge closing the cycle
	checkAll(t, m)
	if m.Weight() != 6 {
		t.Fatalf("weight = %d, want 6", m.Weight())
	}
	if err := m.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	checkAll(t, m)
	if m.Weight() != 104 {
		t.Fatalf("weight after replacement = %d, want 104", m.Weight())
	}
	if !m.Connected(0, 3) || !m.Connected(1, 3) {
		t.Fatal("replacement did not reconnect")
	}
}

func TestDeleteNonTreeEdge(t *testing.T) {
	m := NewMSF(3, Config{}, SeqCharger{})
	mustIns(t, m, 0, 1, 1)
	mustIns(t, m, 1, 2, 2)
	mustIns(t, m, 0, 2, 9)
	if err := m.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	checkAll(t, m)
	if m.Weight() != 3 {
		t.Fatalf("weight = %d, want 3", m.Weight())
	}
}

func TestDeleteMissing(t *testing.T) {
	m := NewMSF(3, Config{}, SeqCharger{})
	if err := m.DeleteEdge(0, 1); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func mustIns(t *testing.T, m *MSF, u, v int, w Weight) {
	t.Helper()
	if err := m.InsertEdge(u, v, w); err != nil {
		t.Fatalf("InsertEdge(%d,%d,%d): %v", u, v, w, err)
	}
}

// TestRandomChurn is the main property test: random degree-respecting
// inserts and deletes with unique weights, validated against Kruskal and the
// full invariant checker after every operation.
func TestRandomChurn(t *testing.T) {
	for _, n := range []int{8, 24, 64} {
		n := n
		t.Run(sizeName(n), func(t *testing.T) {
			rng := xrand.New(uint64(1000 + n))
			m := NewMSF(n, Config{}, SeqCharger{})
			type pair struct{ u, v int }
			var live []pair
			nextW := Weight(1)
			for step := 0; step < 1200; step++ {
				if rng.Intn(5) < 3 || len(live) == 0 {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					err := m.InsertEdge(u, v, nextW)
					nextW += 1 + Weight(rng.Intn(3))
					if err == graph.ErrDegree || err == graph.ErrExists {
						continue
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					live = append(live, pair{u, v})
				} else {
					i := rng.Intn(len(live))
					p := live[i]
					if err := m.DeleteEdge(p.u, p.v); err != nil {
						t.Fatalf("step %d: delete(%d,%d): %v", step, p.u, p.v, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				checkAll(t, m)
			}
		})
	}
}

// TestRandomChurnTies exercises tie-heavy weights (many equal), comparing
// only total forest weight, which is tie-invariant.
func TestRandomChurnTies(t *testing.T) {
	const n = 32
	rng := xrand.New(77)
	m := NewMSF(n, Config{}, SeqCharger{})
	type pair struct{ u, v int }
	var live []pair
	for step := 0; step < 800; step++ {
		if rng.Intn(5) < 3 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			err := m.InsertEdge(u, v, Weight(rng.Intn(4)))
			if err != nil {
				continue
			}
			live = append(live, pair{u, v})
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := m.DeleteEdge(p.u, p.v); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := m.Store().CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		wantW, wantN := kruskal(m.Graph())
		if m.Weight() != wantW || m.ForestSize() != wantN {
			t.Fatalf("step %d: forest (w=%d,n=%d) vs kruskal (w=%d,n=%d)",
				step, m.Weight(), m.ForestSize(), wantW, wantN)
		}
	}
}

// TestTreeEdgeTargeting deletes tree edges preferentially — the worst case
// for replacement search.
func TestTreeEdgeTargeting(t *testing.T) {
	const n = 48
	rng := xrand.New(4242)
	m := NewMSF(n, Config{}, SeqCharger{})
	nextW := Weight(1)
	// Build a connected-ish structure first.
	for i := 0; i < 400; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		m.InsertEdge(u, v, nextW)
		nextW += Weight(1 + rng.Intn(5))
	}
	checkAll(t, m)
	for step := 0; step < 300; step++ {
		// Collect tree edges and delete a random one.
		var te [][2]int
		m.ForestEdges(func(u, v int, w Weight) bool {
			te = append(te, [2]int{u, v})
			return true
		})
		if len(te) == 0 {
			break
		}
		p := te[rng.Intn(len(te))]
		if err := m.DeleteEdge(p[0], p[1]); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkAll(t, m)
		// Occasionally re-insert edges to keep it interesting.
		if step%3 == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				m.InsertEdge(u, v, nextW)
				nextW += Weight(1 + rng.Intn(5))
			}
		}
	}
}

// TestUniqueWeightsEdgeSets compares exact forest edge sets against a
// reference Kruskal forest when weights are globally unique (the MSF is then
// unique).
func TestUniqueWeightsEdgeSets(t *testing.T) {
	const n = 40
	rng := xrand.New(9)
	m := NewMSF(n, Config{}, SeqCharger{})
	perm := rng.Perm(5000)
	wi := 0
	type pair struct{ u, v int }
	var live []pair
	for step := 0; step < 600; step++ {
		if rng.Intn(5) < 3 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := m.InsertEdge(u, v, Weight(perm[wi])); err == nil {
				live = append(live, pair{u, v})
			}
			wi++
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := m.DeleteEdge(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// Unique MSF: compare edge sets with a fresh Kruskal run.
		want := kruskalEdges(m.Graph())
		got := forestEdgeSet(m)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d forest edges, want %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: forest %v != kruskal %v", step, got, want)
			}
		}
	}
}

func kruskalEdges(g *graph.G) [][2]int {
	type ed struct {
		u, v int
		w    Weight
	}
	var edges []ed
	g.Edges(func(id int32) bool {
		u, v := g.Ends(id)
		edges = append(edges, ed{int(u), int(v), g.Weight(id)})
		return true
	})
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var out [][2]int
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			u, v := e.u, e.v
			if u > v {
				u, v = v, u
			}
			out = append(out, [2]int{u, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestParallelDriverMatches runs the same stream on the sequential and PRAM
// drivers and requires identical forests and sane depth/work counters.
func TestParallelDriverMatches(t *testing.T) {
	const n = 48
	mach := pram.New(false)
	seq := NewMSF(n, Config{}, SeqCharger{})
	par := NewMSF(n, Config{}, PRAMCharger{M: mach})
	rng := xrand.New(31)
	type pair struct{ u, v int }
	var live []pair
	nextW := Weight(1)
	for step := 0; step < 600; step++ {
		if rng.Intn(5) < 3 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			e1 := seq.InsertEdge(u, v, nextW)
			e2 := par.InsertEdge(u, v, nextW)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: drivers disagree on insert error: %v vs %v", step, e1, e2)
			}
			if e1 == nil {
				live = append(live, pair{u, v})
			}
			nextW += Weight(1 + rng.Intn(4))
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := seq.DeleteEdge(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			if err := par.DeleteEdge(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if seq.Weight() != par.Weight() || seq.ForestSize() != par.ForestSize() {
			t.Fatalf("step %d: seq (w=%d,n=%d) vs par (w=%d,n=%d)",
				step, seq.Weight(), seq.ForestSize(), par.Weight(), par.ForestSize())
		}
	}
	if err := par.Store().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if mach.Time == 0 || mach.Work == 0 || mach.MaxActive < 2 {
		t.Fatalf("PRAM counters implausible: time=%d work=%d maxActive=%d",
			mach.Time, mach.Work, mach.MaxActive)
	}
}

// TestSmallK forces tiny chunks so splits/merges and registration churn
// constantly.
func TestSmallK(t *testing.T) {
	const n = 40
	m := NewMSF(n, Config{K: 8}, SeqCharger{})
	rng := xrand.New(5150)
	type pair struct{ u, v int }
	var live []pair
	nextW := Weight(1)
	for step := 0; step < 900; step++ {
		if rng.Intn(5) < 3 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := m.InsertEdge(u, v, nextW); err == nil {
				live = append(live, pair{u, v})
			}
			nextW += Weight(1 + rng.Intn(3))
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := m.DeleteEdge(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		checkAll(t, m)
	}
	st := m.Store().Stats()
	if st.ChunkSplits == 0 || st.ChunkMerges == 0 {
		t.Fatalf("expected chunk churn with K=8: %+v", st)
	}
}

func sizeName(n int) string {
	return "n" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSlidingWindowStream drives the temporal sliding-window workload —
// every step is an insert+expire pair — against Kruskal.
func TestSlidingWindowStream(t *testing.T) {
	const n = 64
	s := workloadSliding(n)
	m := NewMSF(n, Config{}, SeqCharger{})
	for i, op := range s {
		var err error
		if op.ins {
			err = m.InsertEdge(op.u, op.v, op.w)
			if err == graph.ErrDegree || err == graph.ErrExists {
				continue // window exceeds the degree bound / repeat arrival
			}
		} else {
			err = m.DeleteEdge(op.u, op.v)
			if err == ErrNotFound {
				continue // matching skipped or already-expired insert
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%50 == 0 {
			checkAll(t, m)
		}
	}
	checkAll(t, m)
}

type slideOp struct {
	ins  bool
	u, v int
	w    Weight
}

func workloadSliding(n int) []slideOp {
	rng := xrand.New(1234)
	var ops []slideOp
	var fifo [][2]int
	w := Weight(1)
	for s := 0; s < 600; s++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			ops = append(ops, slideOp{true, u, v, w})
			fifo = append(fifo, [2]int{u, v})
			w++
		}
		if len(fifo) > 40 {
			k := fifo[0]
			fifo = fifo[1:]
			ops = append(ops, slideOp{false, k[0], k[1], 0})
		}
	}
	return ops
}
