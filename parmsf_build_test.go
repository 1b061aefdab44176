package parmsf

import (
	"math"
	"sort"
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/workload"
)

// buildConfigs is the configuration matrix every Build parity test runs:
// each must produce bit-identical results for one input.
var buildConfigs = []struct {
	name string
	opt  Options
}{
	{"default", Options{}},
	{"workers1", Options{Workers: 1}},
	{"workers2", Options{Workers: 2}},
	{"workers4", Options{Workers: 4}},
	{"sparsify", Options{Sparsify: true}},
	{"sparsify-workers2", Options{Sparsify: true, Workers: 2}},
}

// forestTriples returns the sorted (u, v, w) triples of the forest.
func forestTriples(f *Forest) [][3]int64 {
	var out [][3]int64
	f.Edges(func(u, v int, w Weight) bool {
		if u > v {
			u, v = v, u
		}
		out = append(out, [3]int64{int64(u), int64(v), w})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}

func toEdges(ws []workload.Edge) []Edge {
	out := make([]Edge, len(ws))
	for i, e := range ws {
		out[i] = Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// TestBuildMatchesReplay checks the central parity claim: Build equals a
// batch replay (New + InsertEdges) of the same edges, edge for edge, in
// every configuration, for distinct and heavily tied weights.
func TestBuildMatchesReplay(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []Edge
	}{
		{"distinct", toEdges(workload.RandomSparse(240, 960, 41))},
		{"ties", func() []Edge {
			es := toEdges(workload.RandomSparse(240, 960, 42))
			for i := range es {
				es[i].W = es[i].W % 5 // heavy duplicate weights
			}
			return es
		}()},
		{"hub", func() []Edge {
			seen := map[[2]int]bool{}
			var out []Edge
			for _, e := range workload.PrefAttach(160, 4, 43) {
				k := [2]int{e.U, e.V}
				if k[0] > k[1] {
					k[0], k[1] = k[1], k[0]
				}
				if e.U == e.V || seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, Edge{U: e.U, V: e.V, W: e.W})
			}
			return out
		}()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := 240
			ref := MustNew(n, Options{MaxEdges: len(tc.edges) + 8})
			if errs := ref.InsertEdges(tc.edges); errs != nil {
				for _, err := range errs {
					if err != nil {
						t.Fatalf("replay insert: %v", err)
					}
				}
			}
			defer ref.Close()
			want := forestTriples(ref)

			kr := baseline.NewKruskal(n)
			for _, e := range tc.edges {
				if err := kr.InsertEdge(e.U, e.V, e.W); err != nil {
					t.Fatalf("baseline: %v", err)
				}
			}
			if ref.Weight() != kr.Weight() || ref.Size() != kr.ForestSize() {
				t.Fatalf("replay (w=%d,s=%d) vs kruskal (w=%d,s=%d)",
					ref.Weight(), ref.Size(), kr.Weight(), kr.ForestSize())
			}

			for _, cfg := range buildConfigs {
				f, errs := MustBuild(n, tc.edges, cfg.opt)
				if errs != nil {
					for i, err := range errs {
						if err != nil {
							t.Fatalf("%s: edge %d: %v", cfg.name, i, err)
						}
					}
				}
				if f.Weight() != ref.Weight() || f.Size() != ref.Size() || f.Components() != ref.Components() {
					t.Fatalf("%s: (w=%d,s=%d,c=%d) vs replay (w=%d,s=%d,c=%d)",
						cfg.name, f.Weight(), f.Size(), f.Components(),
						ref.Weight(), ref.Size(), ref.Components())
				}
				got := forestTriples(f)
				if len(got) != len(want) {
					t.Fatalf("%s: %d forest edges, want %d", cfg.name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: forest edge %d = %v, want %v", cfg.name, i, got[i], want[i])
					}
				}
				if s := f.Snapshot(); s.Epoch() != 1 {
					t.Fatalf("%s: epoch = %d, want 1", cfg.name, s.Epoch())
				} else {
					s.Release()
				}
				f.Close()
			}
		})
	}
}

// TestBuildRejects checks per-edge validation: malformed edges and
// duplicates fail with the same errors a per-edge replay resolves, while
// the surviving edges still load, both through the flat loader and
// through the commit path's insert stage that a sparsified Build takes.
func TestBuildRejects(t *testing.T) {
	edges := []Edge{
		{U: 0, V: 1, W: 5},
		{U: 1, V: 1, W: 3},             // self loop
		{U: -1, V: 2, W: 3},            // bad vertex
		{U: 0, V: 9, W: 3},             // out of range
		{U: 2, V: 3, W: MinWeight - 1}, // reserved weight
		{U: 2, V: 3, W: math.MaxInt64}, // engine Inf sentinel
		{U: 1, V: 0, W: 7},             // duplicate (reversed)
		{U: 2, V: 3, W: 9},             // ok
		{U: 3, V: 2, W: 11},            // duplicate
		{U: 0, V: 2, W: 13},            // ok
	}
	want := []error{nil, ErrBadEdge, ErrBadEdge, ErrBadEdge, ErrBadEdge, ErrBadEdge, ErrExists, nil, ErrExists, nil}
	for _, opt := range []Options{{}, {Sparsify: true}} {
		f, errs := MustBuild(4, edges, opt)
		if errs == nil {
			t.Fatalf("%+v: want per-edge errors", opt)
		}
		for i, err := range errs {
			if err != want[i] {
				t.Fatalf("%+v: edge %d: err = %v, want %v", opt, i, err, want[i])
			}
		}
		if f.Weight() != 5+9+13 || f.Size() != 3 {
			t.Fatalf("%+v: loaded forest (w=%d,s=%d)", opt, f.Weight(), f.Size())
		}
		f.Close()
	}

	// MaxEdges below the accepted count is raised, not an error.
	many := toEdges(workload.RandomSparse(64, 256, 77))
	g, errs2 := MustBuild(64, many, Options{MaxEdges: 1})
	if errs2 != nil {
		t.Fatalf("capacity raise failed: %v", errs2)
	}
	g.Close()

	// Empty build: no edges accepted, epoch stays at the initial snapshot.
	h, errs3 := MustBuild(8, nil, Options{})
	if errs3 != nil {
		t.Fatal("empty build errs")
	}
	if s := h.Snapshot(); s.Epoch() != 0 || s.Components() != 8 {
		t.Fatalf("empty build snapshot epoch=%d comps=%d", s.Epoch(), s.Components())
	} else {
		s.Release()
	}
	h.Close()
}

// TestBuildThenMutate checks the regression requirement: a bulk-built
// forest behaves exactly as an incremental one under further synchronous
// and ingest-queue updates, epochs continue from 1, and Close works.
func TestBuildThenMutate(t *testing.T) {
	const n = 120
	base := workload.RandomSparse(n, 3*n, 55)
	for _, cfg := range []Options{{}, {Workers: 2}, {Sparsify: true}} {
		f, errs := MustBuild(n, toEdges(base), cfg)
		if errs != nil {
			t.Fatal("build errs")
		}
		kr := baseline.NewKruskal(n)
		for _, e := range base {
			if err := kr.InsertEdge(e.U, e.V, e.W); err != nil {
				t.Fatal(err)
			}
		}

		stream := workload.Churn(n, base, 300, false, 56)
		for i, op := range stream.Ops {
			if op.Kind == workload.OpInsert {
				refErr := kr.InsertEdge(op.U, op.V, op.W)
				if err := f.Insert(op.U, op.V, op.W); (err == nil) != (refErr == nil) {
					t.Fatalf("op %d: insert %v vs ref %v", i, err, refErr)
				}
			} else {
				kr.DeleteEdge(op.U, op.V)
				if err := f.Delete(op.U, op.V); err != nil {
					t.Fatalf("op %d: delete: %v", i, err)
				}
			}
			if f.Weight() != kr.Weight() || f.Size() != kr.ForestSize() {
				t.Fatalf("op %d: (w=%d,s=%d) vs ref (w=%d,s=%d)",
					i, f.Weight(), f.Size(), kr.Weight(), kr.ForestSize())
			}
		}

		// Ingest plane still works on a bulk-built forest.
		p1 := f.Submit(Update{U: 0, V: 1, W: 1 << 40})
		ps := f.SubmitBatch([]Update{
			{U: 1, V: 2, W: 1<<40 + 1},
			{Delete: true, U: 1, V: 2},
		})
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		_ = p1.Err()
		for _, p := range ps {
			_ = p.Err()
		}

		s := f.Snapshot()
		if s.Epoch() < 2 {
			t.Fatalf("epoch = %d after churn, want >= 2", s.Epoch())
		}
		s.Release()
		f.Close()
	}
}

// TestBuildSparsifyBulkRouting asserts the sparsification path actually
// bulk-loads tree nodes instead of streaming per-edge inserts.
func TestBuildSparsifyBulkRouting(t *testing.T) {
	const n = 200
	f, errs := MustBuild(n, toEdges(workload.RandomSparse(n, 4*n, 91)), Options{Sparsify: true})
	if errs != nil {
		t.Fatal("build errs")
	}
	defer f.Close()
	if f.spars == nil {
		t.Fatal("no sparsify tree")
	}
	if k := f.spars.BulkNodeLoads.Load(); k == 0 {
		t.Fatal("sparsify build routed no node through the bulk loader")
	}
}
