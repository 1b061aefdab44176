package core

import (
	"fmt"
	"testing"

	"parmsf/internal/pram"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// loadBatchState builds a deterministic degree-3 graph state on a fresh
// engine and returns the live edges partitioned into tree and non-tree (as
// of the loaded state).
func loadBatchState(t *testing.T, n int, seed uint64, ch Charger) (m *MSF, tree, nonTree [][2]int) {
	t.Helper()
	m = NewMSF(n, Config{}, ch)
	for _, e := range workload.DegreeBounded(n, n*5/4, 3, seed) {
		if err := m.InsertEdge(e.U, e.V, e.W); err != nil {
			t.Fatalf("load insert (%d,%d): %v", e.U, e.V, err)
		}
	}
	m.Graph().Edges(func(id int32) bool {
		u, v := m.Graph().Ends(id)
		p := [2]int{int(u), int(v)}
		if m.st.isTree(id) {
			tree = append(tree, p)
		} else {
			nonTree = append(nonTree, p)
		}
		return true
	})
	return m, tree, nonTree
}

// TestBatchPlanIndependentGroups is the planner property test: a mixed
// deletion batch — non-tree edges, tree edges, absent keys, duplicates —
// must produce a forest identical to sequential application in plan order,
// for every backend (sequential charger, simulated PRAM, real worker pools
// of 2 and 4) and for every interleaving of the plan's independent non-tree
// groups (exercised by shuffling the batch order of the non-tree deletions,
// which permutes group creation, and by the pool's own scheduling under
// -race). The machine-backed runs must also report identical
// Time/Work/MaxActive for a fixed batch order.
func TestBatchPlanIndependentGroups(t *testing.T) {
	const n = 320
	const seed = 1234

	// Reference: classify against the loaded state, then apply one-element
	// batches sequentially in plan order (non-tree first, then tree).
	ref, tree, nonTree := loadBatchState(t, n, seed, SeqCharger{})
	if len(tree) < 12 || len(nonTree) < 12 {
		t.Fatalf("degenerate state: %d tree, %d non-tree edges", len(tree), len(nonTree))
	}
	delTree := tree[:12]
	delNon := nonTree[:20]
	for _, p := range delNon {
		if err := ref.DeleteEdge(p[0], p[1]); err != nil {
			t.Fatalf("ref non-tree delete %v: %v", p, err)
		}
	}
	for _, p := range delTree {
		if err := ref.DeleteEdge(p[0], p[1]); err != nil {
			t.Fatalf("ref tree delete %v: %v", p, err)
		}
	}
	checkAll(t, ref)
	wantForest := forestEdgeSet(ref)

	// The batch interleaves tree and non-tree deletions and adds error
	// cases: absent keys and a duplicate of each kind.
	mkBatch := func(order []int) []BatchOp {
		var ops []BatchOp
		for i, j := range order {
			p := delNon[j]
			ops = append(ops, BatchOp{Del: true, U: p[0], V: p[1]})
			if i < len(delTree) {
				q := delTree[i]
				ops = append(ops, BatchOp{Del: true, U: q[0], V: q[1]})
			}
		}
		ops = append(ops,
			BatchOp{Del: true, U: delNon[0][1], V: delNon[0][0]},   // duplicate, reversed
			BatchOp{Del: true, U: delTree[0][0], V: delTree[0][1]}, // duplicate tree
			BatchOp{Del: true, U: 0, V: 0},                         // cannot exist
		)
		return ops
	}
	// The last three batch items are the error cases (duplicates and an
	// impossible key); everything else must succeed.
	wantErrs := func(errs []error) {
		t.Helper()
		for i, err := range errs {
			want := error(nil)
			if i >= len(errs)-3 {
				want = ErrNotFound
			}
			if err != want {
				t.Fatalf("errs[%d] = %v, want %v", i, err, want)
			}
		}
	}

	orders := [][]int{nil, nil, nil}
	orders[0] = make([]int, len(delNon))
	for i := range orders[0] {
		orders[0][i] = i
	}
	for v := 1; v < 3; v++ {
		rng := xrand.New(uint64(100 * v))
		perm := rng.Perm(len(delNon))
		orders[v] = perm
	}

	for oi, order := range orders {
		ops := mkBatch(order)
		var counters [][3]int64
		for _, bk := range []struct {
			name string
			mach *pram.Machine
		}{
			{"seq", nil},
			{"sim", pram.New(false)},
			{"par2", pram.NewParallel(2)},
			{"par4", pram.NewParallel(4)},
		} {
			var ch Charger = SeqCharger{}
			if bk.mach != nil {
				ch = PRAMCharger{M: bk.mach}
			}
			m, _, _ := loadBatchState(t, n, seed, ch)
			if bk.mach != nil {
				bk.mach.Reset()
			}
			errs := m.ApplyBatch(ops)
			wantErrs(errs)
			checkAll(t, m)
			got := forestEdgeSet(m)
			if len(got) != len(wantForest) {
				t.Fatalf("order %d backend %s: forest size %d, want %d", oi, bk.name, len(got), len(wantForest))
			}
			for i := range got {
				if got[i] != wantForest[i] {
					t.Fatalf("order %d backend %s: forest edge %v, want %v", oi, bk.name, got[i], wantForest[i])
				}
			}
			if bk.mach != nil {
				counters = append(counters, [3]int64{bk.mach.Time, bk.mach.Work, int64(bk.mach.MaxActive)})
				bk.mach.Close()
			}
		}
		for i := 1; i < len(counters); i++ {
			if counters[i] != counters[0] {
				t.Fatalf("order %d: counters diverge across worker counts: %v vs %v", oi, counters[i], counters[0])
			}
		}
	}
}

// TestBatchMixedOps drives randomized mixed batches (inserts and deletes in
// one ApplyBatch call) against sequential plan-order application and the
// invariant checker, across backends.
func TestBatchMixedOps(t *testing.T) {
	const n = 200
	rng := xrand.New(7)
	type inst struct {
		name string
		mach *pram.Machine
		m    *MSF
	}
	mk := func(name string, mach *pram.Machine) *inst {
		var ch Charger = SeqCharger{}
		if mach != nil {
			ch = PRAMCharger{M: mach}
		}
		return &inst{name: name, mach: mach, m: NewMSF(n, Config{}, ch)}
	}
	insts := []*inst{
		mk("seq", nil),
		mk("sim", pram.New(false)),
		mk("par4", pram.NewParallel(4)),
	}
	defer func() {
		for _, in := range insts {
			if in.mach != nil {
				in.mach.Close()
			}
		}
	}()

	type pair struct{ u, v int }
	var live []pair
	nextW := Weight(1000)
	for round := 0; round < 8; round++ {
		var ops []BatchOp
		for k := 0; k < 25; k++ {
			if rng.Bool() || len(live) == 0 {
				u, v := rng.Intn(n), rng.Intn(n)
				ops = append(ops, BatchOp{U: u, V: v, W: nextW})
				nextW++
			} else {
				i := rng.Intn(len(live))
				p := live[i]
				ops = append(ops, BatchOp{Del: true, U: p.u, V: p.v})
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		ops = append(ops, BatchOp{U: 3, V: 3, W: Inf}) // invalid weight

		var ref []error
		for ii, in := range insts {
			errs := in.m.ApplyBatch(ops)
			if ii == 0 {
				ref = errs
				// Track the surviving inserts for future deletions.
				for i, op := range ops {
					if !op.Del && errs[i] == nil {
						live = append(live, pair{op.U, op.V})
					}
				}
				continue
			}
			for i := range ref {
				if ref[i] != errs[i] {
					t.Fatalf("round %d %s: errs[%d] = %v, want %v", round, in.name, i, errs[i], ref[i])
				}
			}
		}
		for _, in := range insts {
			checkAll(t, in.m)
		}
		a, b := forestEdgeSet(insts[0].m), forestEdgeSet(insts[2].m)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("round %d: forests diverge", round)
		}
		ms, mp := insts[1].mach, insts[2].mach
		if ms.Time != mp.Time || ms.Work != mp.Work || ms.MaxActive != mp.MaxActive {
			t.Fatalf("round %d: counters diverge: {%d %d %d} vs {%d %d %d}",
				round, ms.Time, ms.Work, ms.MaxActive, mp.Time, mp.Work, mp.MaxActive)
		}
	}
}

// TestBatchInsertClassification targets the tour-root classification of the
// insert stage (insertclass.go): a batch whose later inserts are connected
// only through the batch's own earlier links, a cycle swap triggered inside
// the batch, and a redundant heavy edge — every answer must match per-edge
// application on a twin engine.
func TestBatchInsertClassification(t *testing.T) {
	const n = 16
	bat := NewMSF(n, Config{}, SeqCharger{})
	ref := NewMSF(n, Config{}, SeqCharger{})
	ops := []BatchOp{
		{U: 0, V: 1, W: 10},  // link (fresh components)
		{U: 2, V: 3, W: 11},  // link
		{U: 1, V: 2, W: 12},  // link: joins the two previous batch links
		{U: 0, V: 3, W: 5},   // connected only via the batch's own links: cycle swap (displaces 12)
		{U: 4, V: 5, W: 13},  // link (fresh components)
		{U: 5, V: 6, W: 14},  // link
		{U: 4, V: 6, W: 200}, // connected via the batch's links, heavy: no-op
		{U: 3, V: 6, W: 15},  // link: joins the two batch-built components
		{U: 1, V: 5, W: 300}, // connected through everything above: no-op
	}
	for i, err := range bat.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("batch errs[%d] = %v", i, err)
		}
	}
	for _, op := range ops {
		if err := ref.InsertEdge(op.U, op.V, op.W); err != nil {
			t.Fatalf("ref insert (%d,%d): %v", op.U, op.V, err)
		}
	}
	if bat.Weight() != ref.Weight() || bat.ForestSize() != ref.ForestSize() {
		t.Fatalf("batch (w=%d,s=%d) vs per-edge (w=%d,s=%d)",
			bat.Weight(), bat.ForestSize(), ref.Weight(), ref.ForestSize())
	}
	if fmt.Sprint(forestEdgeSet(bat)) != fmt.Sprint(forestEdgeSet(ref)) {
		t.Fatal("forests diverge")
	}
	checkAll(t, bat)

	// After tree deletions in the same batch, the root kernel must see the
	// post-deletion tours: remove both edges bridging the two halves (the
	// non-tree one first, per the plan order, then the tree one — no
	// replacement remains, so the component splits), then insert one edge
	// that reconnects (must classify as a link) and one internal heavy edge
	// (must classify as connected, a no-op).
	ops2 := []BatchOp{
		{Del: true, U: 1, V: 5},
		{Del: true, U: 3, V: 6},
		{U: 2, V: 6, W: 16},
		{U: 1, V: 3, W: 400},
	}
	for i, err := range bat.ApplyBatch(ops2) {
		if err != nil {
			t.Fatalf("batch2 errs[%d] = %v", i, err)
		}
	}
	for _, op := range ops2 {
		var err error
		if op.Del {
			err = ref.DeleteEdge(op.U, op.V)
		} else {
			err = ref.InsertEdge(op.U, op.V, op.W)
		}
		if err != nil {
			t.Fatalf("ref op %v: %v", op, err)
		}
	}
	if bat.Weight() != ref.Weight() || fmt.Sprint(forestEdgeSet(bat)) != fmt.Sprint(forestEdgeSet(ref)) {
		t.Fatal("post-deletion classification diverges from per-edge")
	}
	checkAll(t, bat)
}
