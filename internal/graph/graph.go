// Package graph provides the bounded-degree dynamic edge-weighted graph the
// core structure operates on.
//
// The paper (Section 1.1) assumes the input graph has maximum degree 3,
// obtained from a general graph by Frederickson's vertex-splitting technique
// (implemented in internal/ternary). This package enforces the bound and
// provides O(1) edge lookup and O(degree) incidence iteration, which the
// chunk machinery relies on (every vertex contributes at most 3 edges to the
// count n_c of Invariant 1).
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
	adj    [][]*Edge
	byID   []*Edge
	freeID []int32
	m      int
}

// New returns an empty graph on n vertices with the given degree bound
// (pass 3 for the paper's setting; 0 means unbounded).
func New(n, maxDeg int) *G {
	return &G{n: n, maxDeg: maxDeg, adj: make([][]*Edge, n)}
}

// N returns the number of vertices.
func (g *G) N() int { return g.n }

// M returns the number of live edges.
func (g *G) M() int { return g.m }

// IDBound returns an exclusive upper bound on live edge IDs, for sizing
// side tables.
func (g *G) IDBound() int { return len(g.byID) }

// Degree returns the degree of v.
func (g *G) Degree(v int) int { return len(g.adj[v]) }

// Find returns the edge between u and v, or nil.
func (g *G) Find(u, v int) *Edge {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return nil
	}
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a = g.adj[v]
	}
	for _, e := range a {
		if (int(e.U) == u && int(e.V) == v) || (int(e.U) == v && int(e.V) == u) {
			return e
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
	if g.maxDeg > 0 && (len(g.adj[u]) >= g.maxDeg || len(g.adj[v]) >= g.maxDeg) {
		return nil, ErrDegree
	}
	e := &Edge{U: int32(u), V: int32(v), W: w}
	if k := len(g.freeID); k > 0 {
		e.ID = g.freeID[k-1]
		g.freeID = g.freeID[:k-1]
		g.byID[e.ID] = e
	} else {
		e.ID = int32(len(g.byID))
		g.byID = append(g.byID, e)
	}
	g.adj[u] = append(g.adj[u], e)
	g.adj[v] = append(g.adj[v], e)
	g.m++
	return e, nil
}

// Delete removes the edge between u and v and returns it (with its final
// state, including the Tree flag, still set).
func (g *G) Delete(u, v int) (*Edge, error) {
	e := g.Find(u, v)
	if e == nil {
		return nil, ErrMissing
	}
	g.removeFrom(int(e.U), e)
	g.removeFrom(int(e.V), e)
	g.byID[e.ID] = nil
	g.freeID = append(g.freeID, e.ID)
	g.m--
	return e, nil
}

func (g *G) removeFrom(v int, e *Edge) {
	a := g.adj[v]
	for i, x := range a {
		if x == e {
			a[i] = a[len(a)-1]
			g.adj[v] = a[:len(a)-1]
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

// Incident calls f for each edge incident to v, stopping early if f
// returns false.
func (g *G) Incident(v int, f func(*Edge) bool) {
	for _, e := range g.adj[v] {
		if !f(e) {
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
