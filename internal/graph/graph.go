// Package graph provides the bounded-degree dynamic edge-weighted graph the
// core structure operates on.
//
// The paper (Section 1.1) assumes the input graph has maximum degree 3,
// obtained from a general graph by Frederickson's vertex-splitting technique
// (implemented in internal/ternary). This package enforces the bound and
// provides O(degree) edge lookup and incidence iteration, which the chunk
// machinery relies on (every vertex contributes at most 3 edges to the
// count n_c of Invariant 1).
//
// An edge is named by its int32 ID and has no record of its own: its
// endpoints and weight sit in arrays indexed by ID, and incidence is stored
// flat — vertex v's edges are the first Degree(v) of maxDeg fixed slots of
// one array, each a (far endpoint, edge ID) pair — so a scan over a vertex's
// edges is index loads with no pointer chasing, and a warm graph allocates
// nothing per update. Deleted IDs are reused, the last freed first; callers
// that keep per-edge side tables index them by ID and size them by IDBound.
package graph

import (
	"errors"
	"fmt"
)

// Half is one incidence of a vertex: the far endpoint and the edge's ID.
type Half struct{ To, ID int32 }

// Common errors.
var (
	ErrExists    = errors.New("graph: edge already present")
	ErrMissing   = errors.New("graph: edge not present")
	ErrDegree    = errors.New("graph: degree bound exceeded")
	ErrSelfLoop  = errors.New("graph: self loop")
	ErrBadVertex = errors.New("graph: vertex out of range")
)

// G is a dynamic simple graph over vertices 0..n-1 with bounded degree.
type G struct {
	n      int
	maxDeg int
	half   []Half     // v's incidences: half[v*maxDeg : v*maxDeg+deg[v]]
	deg    []uint8    // degree by vertex
	ends   [][2]int32 // endpoints by edge ID, as inserted
	wt     []int64    // weight by edge ID
	live   []bool     // by edge ID: false in free slots
	freeID []int32
	m      int
}

// New returns an empty graph on n vertices with the given degree bound
// (3 in the paper's setting; at most 255).
func New(n, maxDeg int) *G {
	if maxDeg < 1 || maxDeg > 255 {
		panic(fmt.Sprintf("graph: degree bound %d outside [1, 255]", maxDeg))
	}
	return &G{n: n, maxDeg: maxDeg, half: make([]Half, n*maxDeg), deg: make([]uint8, n)}
}

// N returns the number of vertices.
func (g *G) N() int { return g.n }

// M returns the number of live edges.
func (g *G) M() int { return g.m }

// IDBound returns an exclusive upper bound on live edge IDs, for sizing
// side tables.
func (g *G) IDBound() int { return len(g.ends) }

// Degree returns the degree of v.
func (g *G) Degree(v int) int { return int(g.deg[v]) }

// Adj returns v's incidences. The slice aliases the graph's storage: it is
// valid until the next Insert or Delete at v and must not be written.
func (g *G) Adj(v int32) []Half {
	at := int(v) * g.maxDeg
	return g.half[at : at+int(g.deg[v])]
}

// Ends returns edge id's endpoints in the order Insert was given them. A
// deleted edge's endpoints and weight stay readable until Insert reuses
// its ID.
func (g *G) Ends(id int32) (u, v int32) {
	e := g.ends[id]
	return e[0], e[1]
}

// Weight returns edge id's weight (see Ends for deleted edges).
func (g *G) Weight(id int32) int64 { return g.wt[id] }

// Find returns the ID of the edge between u and v, or -1.
func (g *G) Find(u, v int) int32 {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	if g.deg[v] < g.deg[u] {
		u, v = v, u
	}
	for _, h := range g.Adj(int32(u)) {
		if int(h.To) == v {
			return h.ID
		}
	}
	return -1
}

// Insert adds edge (u, v) with weight w and returns its ID: the last freed
// ID if any, else IDBound, which then grows by one.
func (g *G) Insert(u, v int, w int64) (int32, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1, ErrBadVertex
	}
	if u == v {
		return -1, ErrSelfLoop
	}
	if g.Find(u, v) >= 0 {
		return -1, ErrExists
	}
	if int(g.deg[u]) >= g.maxDeg || int(g.deg[v]) >= g.maxDeg {
		return -1, ErrDegree
	}
	ends := [2]int32{int32(u), int32(v)}
	var id int32
	if k := len(g.freeID); k > 0 {
		id = g.freeID[k-1]
		g.freeID = g.freeID[:k-1]
		g.ends[id], g.wt[id], g.live[id] = ends, w, true
	} else {
		id = int32(len(g.ends))
		g.ends = append(g.ends, ends)
		g.wt = append(g.wt, w)
		g.live = append(g.live, true)
	}
	g.addHalf(u, Half{int32(v), id})
	g.addHalf(v, Half{int32(u), id})
	g.m++
	return id, nil
}

func (g *G) addHalf(v int, h Half) {
	g.half[v*g.maxDeg+int(g.deg[v])] = h
	g.deg[v]++
}

// Delete removes the edge between u and v and returns its ID.
func (g *G) Delete(u, v int) (int32, error) {
	id := g.Find(u, v)
	if id < 0 {
		return -1, ErrMissing
	}
	g.removeFrom(int32(u), id)
	g.removeFrom(int32(v), id)
	g.live[id] = false
	g.freeID = append(g.freeID, id)
	g.m--
	return id, nil
}

// removeFrom drops edge id from v's incidences, moving v's last incidence
// into its slot.
func (g *G) removeFrom(v, id int32) {
	a := g.Adj(v)
	for i, h := range a {
		if h.ID == id {
			a[i] = a[len(a)-1]
			g.deg[v]--
			return
		}
	}
	panic("graph: adjacency list corrupt")
}

// Edges calls f with each live edge ID in increasing order, stopping early
// if f returns false. The order is deterministic for a fixed operation
// history.
func (g *G) Edges(f func(id int32) bool) {
	for id, ok := range g.live {
		if ok && !f(int32(id)) {
			return
		}
	}
}
