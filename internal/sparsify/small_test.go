package sparsify

import (
	"fmt"
	"slices"
	"testing"

	"parmsf/internal/baseline"
	"parmsf/internal/batch"
	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

// TestSmallNodeMatchesKruskal drives random delta streams through one
// small node (16 local vertices over two intervals of 8) against a flat
// Kruskal recompute over the same edge set, with distinct weights and
// with weights in 1–4. Both break ties by (w, u, v), so after every delta
// the forests must match edge for edge, the node's emitted events must be
// exactly the forest difference — removals, then additions, each
// ascending by (w, u, v) — and the visit's charge must be what the static
// kernel charges for the same edges on a sequential machine.
func TestSmallNodeMatchesKruskal(t *testing.T) {
	for _, tied := range []bool{false, true} {
		t.Run(fmt.Sprintf("tied=%v", tied), func(t *testing.T) {
			f := withCounters(New(32, kruskalFactory))
			nd := &node{key: nodeKey{2, 0, 1}, aStart: 0, bStart: 8, span: 8}
			if nd.localN() != 16 || nd.localN() > smallMax {
				t.Fatalf("node of %d local vertices is not small", nd.localN())
			}
			ref := baseline.NewKruskal(16)
			rng := xrand.New(31337)
			live := map[[2]int]int64{}
			var liveL [][2]int
			nextW := int64(1)
			forestOf := func() map[[2]int]int64 {
				out := map[[2]int]int64{}
				ref.ForestEdges(func(u, v int, w int64) bool {
					out[key(u, v)] = w
					return true
				})
				return out
			}
			for step := 0; step < 400; step++ {
				before := forestOf()
				var dels [][2]int
				var inss []batch.Edge
				for i := rng.Intn(4); i > 0 && len(liveL) > 0; i-- {
					j := rng.Intn(len(liveL))
					k := liveL[j]
					liveL[j] = liveL[len(liveL)-1]
					liveL = liveL[:len(liveL)-1]
					dels = append(dels, k)
					delete(live, k)
					mustNil(t, ref.DeleteEdge(k[0], k[1]))
				}
				for tries := rng.Intn(5); tries > 0; tries-- {
					u, v := rng.Intn(16), rng.Intn(16)
					k := key(u, v)
					if _, ok := live[k]; u == v || ok || slices.Contains(dels, k) {
						continue
					}
					w := nextW
					if tied {
						w = int64(1 + rng.Intn(4))
					} else {
						nextW += int64(1 + rng.Intn(3))
					}
					live[k] = w
					liveL = append(liveL, k)
					inss = append(inss, batch.Edge{U: k[0], V: k[1], W: w})
					mustNil(t, ref.InsertEdge(k[0], k[1], w))
				}
				if len(dels) == 0 && len(inss) == 0 {
					continue
				}
				depth, work := f.applyNodeDelta(nd, dels, inss)
				evs := nd.drain()

				after := forestOf()
				var want []event
				for k, w := range before {
					if _, ok := after[k]; !ok {
						want = append(want, event{k[0], k[1], w, false})
					}
				}
				slices.SortFunc(want, cmpEvent)
				mark := len(want)
				for k, w := range after {
					if _, ok := before[k]; !ok {
						want = append(want, event{k[0], k[1], w, true})
					}
				}
				slices.SortFunc(want[mark:], cmpEvent)
				if !slices.Equal(evs, want) {
					t.Fatalf("step %d: events %+v, want %+v", step, evs, want)
				}

				got := map[[2]int]int64{}
				nd.forestEdges(func(u, v int, w int64) { got[key(u, v)] = w })
				if len(got) != len(after) {
					t.Fatalf("step %d: %d forest edges, Kruskal %d", step, len(got), len(after))
				}
				for k, w := range after {
					if gw, ok := got[k]; !ok || gw != w {
						t.Fatalf("step %d: Kruskal forest edge %v w=%d missing from the node's", step, k, w)
					}
				}
				if nd.m != len(live) {
					t.Fatalf("step %d: m=%d, want %d", step, nd.m, len(live))
				}
				if err := nd.checkSmall(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}

				items := make([]batch.Item, 0, len(live))
				for k, w := range live {
					items = append(items, batch.Item{Key: w, A: k[0], B: k[1]})
				}
				var m pram.Machine
				var k batch.MSF
				k.Classify(&m, 16, items, nil)
				if depth != m.Time || work != m.Work {
					t.Fatalf("step %d: charge (%d, %d), kernel charges (%d, %d)", step, depth, work, m.Time, m.Work)
				}
			}
		})
	}
}

// TestSmallNodesKeepNoEngine checks, after a dense load and after
// delete+insert churn, that the factory is never called for a node below
// the root of at most smallMax local vertices, that no such node holds an
// engine, and that every larger node and the root do.
func TestSmallNodesKeepNoEngine(t *testing.T) {
	const n = 64
	calls := map[int]int{}
	f := New(n, func(localN, maxEdges int) Engine {
		calls[localN]++
		return kruskalFactory(localN, maxEdges)
	})
	rng := xrand.New(2718)
	live := map[[2]int]bool{}
	var liveL [][2]int
	fresh := func(m int) []batch.Edge {
		var es []batch.Edge
		for len(es) < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if k := key(u, v); u != v && !live[k] {
				live[k] = true
				liveL = append(liveL, k)
				es = append(es, batch.Edge{U: u, V: v, W: rng.Int63()%1000 + 1})
			}
		}
		return es
	}
	check := func(stage string) {
		t.Helper()
		for localN, c := range calls {
			if localN <= smallMax {
				t.Fatalf("%s: factory called %d times for %d local vertices", stage, c, localN)
			}
		}
		engines, smalls := 0, 0
		for k, nd := range f.nodes {
			wantSmall := k.level != 0 && nd.localN() <= smallMax
			if (nd.eng == nil) != wantSmall {
				t.Fatalf("%s: node %v of %d local vertices: engine %v", stage, k, nd.localN(), nd.eng != nil)
			}
			if wantSmall {
				smalls++
			} else {
				engines++
			}
		}
		if engines < 2 || smalls == 0 {
			t.Fatalf("%s: %d engine nodes, %d small nodes", stage, engines, smalls)
		}
		if err := f.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	mustNil(t, firstErr(f.InsertEdges(fresh(16*n))))
	check("after load")
	for round := 0; round < 20; round++ {
		del := liveL[:16]
		for _, k := range del {
			delete(live, k)
		}
		mustNil(t, firstErr(f.DeleteEdges(del)))
		liveL = append([][2]int(nil), liveL[16:]...)
		mustNil(t, firstErr(f.InsertEdges(fresh(16))))
	}
	check("after churn")
}

// TestSmallNodeVisitAllocs pins a warm small-node visit at 0 allocations:
// the edge slice, the kernel's scratch and the pending-event buffer are
// all reused.
func TestSmallNodeVisitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	f := withCounters(New(32, kruskalFactory))
	nd := &node{key: nodeKey{2, 0, 1}, aStart: 0, bStart: 8, span: 8}
	var base []batch.Edge
	for u := 0; u < 16; u++ {
		for v := u + 1; v < 16; v += 5 {
			base = append(base, batch.Edge{U: u, V: v, W: int64(100*u + v)})
		}
	}
	f.applyNodeDelta(nd, nil, base)
	// The lightest edge is a forest edge: its deletion and reinsertion each
	// move the forest.
	dels := [][2]int{{base[0].U, base[0].V}}
	inss := base[:1]
	visit := func() {
		f.applyNodeDelta(nd, dels, nil)
		nd.drain()
		f.applyNodeDelta(nd, nil, inss)
		if len(nd.drain()) == 0 {
			t.Fatal("reinserting a forest edge emitted no event")
		}
	}
	visit()
	if avg := testing.AllocsPerRun(100, visit); avg != 0 {
		t.Fatalf("warm small-node visit allocations = %.1f, want 0", avg)
	}
}
