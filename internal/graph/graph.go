// Package graph provides the bounded-degree dynamic edge-weighted graph the
// core structure operates on.
//
// The paper (Section 1.1) assumes the input graph has maximum degree 3,
// obtained from a general graph by Frederickson's vertex-splitting technique
// (implemented in internal/ternary). This package enforces the bound and
// provides O(1) edge lookup and O(degree) incidence iteration, which the
// chunk machinery relies on (every vertex contributes at most 3 edges to the
// count n_c of Invariant 1).
//
// Incidence is stored flat: vertex v's edges are the first Degree(v) of
// maxDeg fixed slots of one array, each a (far endpoint, edge ID) pair, and
// weights sit in an array indexed by edge ID, so a scan over a vertex's
// edges is index loads with no pointer chasing.
package graph

import (
	"errors"
	"fmt"
)

// Edge is a live graph edge. The struct address is stable for the lifetime
// of the edge; ID values are recycled after deletion, and callers that keep
// per-edge side tables index them by ID.
type Edge struct {
	ID   int32
	U, V int32
	W    int64
	Tree bool // maintained by the MSF engine: e is in the current forest
}

// Other returns the endpoint of e opposite to x.
func (e *Edge) Other(x int32) int32 {
	if e.U == x {
		return e.V
	}
	return e.U
}

func (e *Edge) String() string {
	return fmt.Sprintf("(%d,%d;w=%d,id=%d)", e.U, e.V, e.W, e.ID)
}

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
	half   []Half  // v's incidences: half[v*maxDeg : v*maxDeg+deg[v]]
	deg    []uint8 // degree by vertex
	wt     []int64 // weight by edge ID (stale in free slots)
	byID   []*Edge
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
func (g *G) IDBound() int { return len(g.byID) }

// Degree returns the degree of v.
func (g *G) Degree(v int) int { return int(g.deg[v]) }

// Adj returns v's incidences. The slice aliases the graph's storage: it is
// valid until the next Insert or Delete at v and must not be written.
func (g *G) Adj(v int32) []Half {
	at := int(v) * g.maxDeg
	return g.half[at : at+int(g.deg[v])]
}

// Weight returns the weight of the live edge with the given ID.
func (g *G) Weight(id int32) int64 { return g.wt[id] }

// Find returns the edge between u and v, or nil.
func (g *G) Find(u, v int) *Edge {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return nil
	}
	if g.deg[v] < g.deg[u] {
		u, v = v, u
	}
	for _, h := range g.Adj(int32(u)) {
		if int(h.To) == v {
			return g.byID[h.ID]
		}
	}
	return nil
}

// Insert adds edge (u, v) with weight w and returns it.
func (g *G) Insert(u, v int, w int64) (*Edge, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return nil, ErrBadVertex
	}
	if u == v {
		return nil, ErrSelfLoop
	}
	if g.Find(u, v) != nil {
		return nil, ErrExists
	}
	if int(g.deg[u]) >= g.maxDeg || int(g.deg[v]) >= g.maxDeg {
		return nil, ErrDegree
	}
	e := &Edge{U: int32(u), V: int32(v), W: w}
	if k := len(g.freeID); k > 0 {
		e.ID = g.freeID[k-1]
		g.freeID = g.freeID[:k-1]
		g.byID[e.ID] = e
		g.wt[e.ID] = w
	} else {
		e.ID = int32(len(g.byID))
		g.byID = append(g.byID, e)
		g.wt = append(g.wt, w)
	}
	g.addHalf(u, Half{int32(v), e.ID})
	g.addHalf(v, Half{int32(u), e.ID})
	g.m++
	return e, nil
}

func (g *G) addHalf(v int, h Half) {
	g.half[v*g.maxDeg+int(g.deg[v])] = h
	g.deg[v]++
}

// Delete removes the edge between u and v and returns it (with its final
// state, including the Tree flag, still set).
func (g *G) Delete(u, v int) (*Edge, error) {
	e := g.Find(u, v)
	if e == nil {
		return nil, ErrMissing
	}
	g.removeFrom(e.U, e.ID)
	g.removeFrom(e.V, e.ID)
	g.byID[e.ID] = nil
	g.freeID = append(g.freeID, e.ID)
	g.m--
	return e, nil
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

// ByID returns the live edge with the given id, or nil.
func (g *G) ByID(id int32) *Edge {
	if int(id) >= len(g.byID) {
		return nil
	}
	return g.byID[id]
}

// Incident calls f for each edge incident to v, in Adj order, stopping
// early if f returns false.
func (g *G) Incident(v int, f func(*Edge) bool) {
	for _, h := range g.Adj(int32(v)) {
		if !f(g.byID[h.ID]) {
			return
		}
	}
}

// Edges calls f for each live edge, stopping early if f returns false.
// Iteration order is by edge ID slot, deterministic for a fixed operation
// history.
func (g *G) Edges(f func(*Edge) bool) {
	for _, e := range g.byID {
		if e != nil && !f(e) {
			return
		}
	}
}
