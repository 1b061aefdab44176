// Package baseline provides reference dynamic MSF engines for correctness
// cross-checks and for the prior-work comparison experiments (E8): a
// recompute-from-scratch Kruskal engine and a link-cut-tree engine with
// O(log n) insertions but O(m log n) deletion-time replacement scans — the
// classic pre-Frederickson baseline the paper's line of work improves on.
package baseline

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"parmsf/internal/lct"
)

// Common errors.
var (
	ErrExists   = errors.New("baseline: edge already present")
	ErrMissing  = errors.New("baseline: edge not present")
	ErrSelfLoop = errors.New("baseline: self loop")
)

type edge struct {
	u, v int
	w    int64
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// sortedEdges calls f with each key of forest, in increasing order, and its
// weight in edges, until f returns false.
func sortedEdges[V any](forest map[[2]int]V, edges map[[2]int]int64, f func(u, v int, w int64) bool) {
	keys := make([][2]int, 0, len(forest))
	for ky := range forest {
		keys = append(keys, ky)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, ky := range keys {
		if !f(ky[0], ky[1], edges[ky]) {
			return
		}
	}
}

// ---------------------------------------------------------------------------

// Kruskal is the naive engine: it stores the edge set and recomputes the
// whole MSF with sort + union-find after every mutation. O(m log m) per
// update, trivially correct.
type Kruskal struct {
	n      int
	edges  map[[2]int]int64
	parent []int
	weight int64
	size   int
	inMSF  map[[2]int]bool
	events func(u, v int, w int64, added bool)
}

// NewKruskal returns an empty recompute engine on n vertices.
func NewKruskal(n int) *Kruskal {
	return &Kruskal{
		n:     n,
		edges: make(map[[2]int]int64),
		inMSF: make(map[[2]int]bool),
	}
}

// SetEvents installs the forest-change callback.
func (k *Kruskal) SetEvents(f func(u, v int, w int64, added bool)) { k.events = f }

// InsertEdge implements the engine interface.
func (k *Kruskal) InsertEdge(u, v int, w int64) error {
	if u == v {
		return ErrSelfLoop
	}
	ky := key(u, v)
	if _, dup := k.edges[ky]; dup {
		return ErrExists
	}
	k.edges[ky] = w
	k.recompute()
	return nil
}

// DeleteEdge implements the engine interface.
func (k *Kruskal) DeleteEdge(u, v int) error {
	ky := key(u, v)
	if _, ok := k.edges[ky]; !ok {
		return ErrMissing
	}
	delete(k.edges, ky)
	k.recompute()
	return nil
}

func (k *Kruskal) find(x int) int {
	for k.parent[x] != x {
		k.parent[x] = k.parent[k.parent[x]]
		x = k.parent[x]
	}
	return x
}

func (k *Kruskal) recompute() {
	es := make([]edge, 0, len(k.edges))
	for ky, w := range k.edges {
		es = append(es, edge{ky[0], ky[1], w})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].w != es[j].w {
			return es[i].w < es[j].w
		}
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	if k.parent == nil {
		k.parent = make([]int, k.n)
	}
	for i := range k.parent {
		k.parent[i] = i
	}
	k.weight, k.size = 0, 0
	next := make(map[[2]int]bool, k.size+1)
	for _, e := range es {
		ru, rv := k.find(e.u), k.find(e.v)
		if ru != rv {
			k.parent[ru] = rv
			k.weight += e.w
			k.size++
			next[key(e.u, e.v)] = true
		}
	}
	if k.events != nil {
		for ky := range k.inMSF {
			if !next[ky] {
				k.events(ky[0], ky[1], k.edges[ky], false)
			}
		}
		for ky := range next {
			if !k.inMSF[ky] {
				k.events(ky[0], ky[1], k.edges[ky], true)
			}
		}
	}
	k.inMSF = next
}

// Connected implements the engine interface.
func (k *Kruskal) Connected(u, v int) bool {
	if u == v {
		return true
	}
	if k.parent == nil {
		return false
	}
	return k.find(u) == k.find(v)
}

// Weight implements the engine interface.
func (k *Kruskal) Weight() int64 { return k.weight }

// ForestSize implements the engine interface.
func (k *Kruskal) ForestSize() int { return k.size }

// ForestEdges implements the engine interface. Iteration order is sorted.
func (k *Kruskal) ForestEdges(f func(u, v int, w int64) bool) { sortedEdges(k.inMSF, k.edges, f) }

// M returns the number of live edges.
func (k *Kruskal) M() int { return len(k.edges) }

// ---------------------------------------------------------------------------

// LCTScan maintains the forest with link-cut trees: insertions run in
// O(log n) via the path-maximum swap, but deleting a tree edge scans every
// non-tree edge for the lightest reconnecting candidate — O(m log n) worst
// case. This is the natural "dynamic trees only" baseline whose deletion
// cost the paper's chunk/LSDS machinery eliminates.
type LCTScan struct {
	n      int
	f      *lct.Forest
	edges  map[[2]int]int64
	tree   map[[2]int]int32 // forest edge -> its link-cut ID
	free   []int32          // IDs of cut forest edges, reused last-cut first
	weight int64
	events func(u, v int, w int64, added bool)
}

// NewLCTScan returns an empty engine on n vertices.
func NewLCTScan(n int) *LCTScan {
	return &LCTScan{
		n:     n,
		f:     lct.New(n),
		edges: make(map[[2]int]int64),
		tree:  make(map[[2]int]int32),
	}
}

// SetEvents installs the forest-change callback.
func (s *LCTScan) SetEvents(f func(u, v int, w int64, added bool)) { s.events = f }

func (s *LCTScan) link(u, v int, w int64) {
	id := int32(len(s.tree)) // every ID below it is in use when none is free
	if k := len(s.free); k > 0 {
		id, s.free = s.free[k-1], s.free[:k-1]
	}
	s.f.Link(u, v, w, id)
	s.tree[key(u, v)] = id
	s.weight += w
	if s.events != nil {
		s.events(u, v, w, true)
	}
}

func (s *LCTScan) cut(u, v int) {
	ky := key(u, v)
	id := s.tree[ky]
	_, _, w, _ := s.f.Linked(id)
	s.f.Cut(id)
	delete(s.tree, ky)
	s.free = append(s.free, id)
	s.weight -= w
	if s.events != nil {
		s.events(u, v, w, false)
	}
}

// InsertEdge implements the engine interface.
func (s *LCTScan) InsertEdge(u, v int, w int64) error {
	if u == v {
		return ErrSelfLoop
	}
	ky := key(u, v)
	if _, dup := s.edges[ky]; dup {
		return ErrExists
	}
	s.edges[ky] = w
	if !s.f.Connected(u, v) {
		s.link(u, v, w)
		return nil
	}
	if hu, hv, hw, _ := s.f.Linked(s.f.PathMaxEdge(u, v)); w < hw {
		s.cut(hu, hv)
		s.link(u, v, w)
	}
	return nil
}

// DeleteEdge implements the engine interface.
func (s *LCTScan) DeleteEdge(u, v int) error {
	ky := key(u, v)
	if _, ok := s.edges[ky]; !ok {
		return ErrMissing
	}
	delete(s.edges, ky)
	if _, isTree := s.tree[ky]; !isTree {
		return nil
	}
	s.cut(u, v)
	// Scan all non-tree edges for the lightest reconnecting one.
	bestW := int64(0)
	var best [2]int
	found := false
	for k2, w2 := range s.edges {
		if _, t := s.tree[k2]; t {
			continue
		}
		// Candidate iff it crosses the two new components.
		if s.f.Connected(k2[0], u) != s.f.Connected(k2[1], u) {
			if !found || w2 < bestW {
				found, bestW, best = true, w2, k2
			}
		}
	}
	if found {
		s.link(best[0], best[1], bestW)
	}
	return nil
}

// Connected implements the engine interface.
func (s *LCTScan) Connected(u, v int) bool { return s.f.Connected(u, v) }

// Weight implements the engine interface.
func (s *LCTScan) Weight() int64 { return s.weight }

// ForestSize implements the engine interface.
func (s *LCTScan) ForestSize() int { return len(s.tree) }

// ForestEdges implements the engine interface. Iteration order is sorted.
func (s *LCTScan) ForestEdges(f func(u, v int, w int64) bool) { sortedEdges(s.tree, s.edges, f) }

// M returns the number of live edges.
func (s *LCTScan) M() int { return len(s.edges) }
