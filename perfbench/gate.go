package main

import (
	"fmt"
	"slices"

	"parmsf"
	"parmsf/cluster"
)

// answer is what a forest reports for the correctness gate: the queries a
// user sees plus the full forest edge set, canonical (U < V) and sorted.
type answer struct {
	weight     int64
	size       int
	components int
	edges      []parmsf.Edge
}

func edgeCmp(a, b parmsf.Edge) int {
	if a.W != b.W {
		if a.W < b.W {
			return -1
		}
		return 1
	}
	if a.U != b.U {
		return a.U - b.U
	}
	return a.V - b.V
}

// collect gathers canonical edges from an Edges-style iterator, sorted.
func collect(each func(fn func(u, v int, w parmsf.Weight) bool)) []parmsf.Edge {
	var es []parmsf.Edge
	each(func(u, v int, w parmsf.Weight) bool {
		k := key(u, v)
		es = append(es, parmsf.Edge{U: k[0], V: k[1], W: w})
		return true
	})
	slices.SortFunc(es, edgeCmp)
	return es
}

// forestAnswer reads one snapshot of f.
func forestAnswer(f *parmsf.Forest) answer {
	s := f.Snapshot()
	defer s.Release()
	return answer{weight: s.Weight(), size: s.Size(), components: s.Components(), edges: collect(s.Edges)}
}

// clusterAnswer reads c's composed view (the cluster must be quiescent).
func clusterAnswer(c *cluster.Cluster) answer {
	return answer{weight: c.Weight(), size: c.Size(), components: c.Components(), edges: collect(c.Edges)}
}

// kruskal is the reference: the minimum spanning forest of the live edge
// set by sort and union-find (weights are distinct, so it is unique).
func kruskal(n int, live []parmsf.Edge) answer {
	es := slices.Clone(live)
	for i, e := range es {
		k := key(e.U, e.V)
		es[i].U, es[i].V = k[0], k[1]
	}
	slices.SortFunc(es, edgeCmp)
	par := make([]int, n)
	for i := range par {
		par[i] = i
	}
	find := func(x int) int {
		for par[x] != x {
			par[x] = par[par[x]]
			x = par[x]
		}
		return x
	}
	a := answer{}
	for _, e := range es {
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		par[ru] = rv
		a.weight += e.W
		a.edges = append(a.edges, e)
	}
	a.size = len(a.edges)
	a.components = n - a.size
	return a
}

// checkAnswer reports the first difference between got and want.
func checkAnswer(got, want answer) error {
	switch {
	case got.weight != want.weight:
		return fmt.Errorf("weight %d, want %d", got.weight, want.weight)
	case got.size != want.size:
		return fmt.Errorf("size %d, want %d", got.size, want.size)
	case got.components != want.components:
		return fmt.Errorf("components %d, want %d", got.components, want.components)
	case len(got.edges) != len(want.edges):
		return fmt.Errorf("%d forest edges, want %d", len(got.edges), len(want.edges))
	}
	for i := range got.edges {
		if got.edges[i] != want.edges[i] {
			return fmt.Errorf("forest edge %d is %+v, want %+v", i, got.edges[i], want.edges[i])
		}
	}
	return nil
}
