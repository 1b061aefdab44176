// Package lct implements Sleator-Tarjan link-cut trees over a fixed vertex
// set, supporting Link, Cut, Connected and heaviest-edge-on-path queries in
// O(log n) amortized time.
//
// The paper (Section 2.1) uses this structure to solve subproblem (1):
// locating the heaviest edge on the MSF path between the endpoints of an
// inserted edge. Edges are represented as their own nodes placed between
// their endpoints, so a path-maximum query over nodes directly yields the
// heaviest edge (vertices carry weight -infinity).
package lct

import "math"

type node struct {
	l, r, p *node
	flip    bool
	id      int32 // the edge's ID if this node represents an edge, else -1
	w       int64
	maxn    *node // node of maximum weight in this splay subtree
}

// edge is the node of a linked edge, placed between its endpoints.
type edge struct {
	n    node
	u, v int32
}

// Forest is a link-cut forest over vertices 0..n-1. Edges are named by the
// caller's IDs: es holds each linked ID's node, and a cut node waits in free
// for the next Link, so the nodes number at most the largest forest seen.
type Forest struct {
	vs   []node
	es   []*edge // by edge ID: its node while linked, else nil
	free []*edge
}

// New returns a forest of n isolated vertices.
func New(n int) *Forest {
	f := &Forest{vs: make([]node, n)}
	for i := range f.vs {
		f.vs[i].id = -1
		f.vs[i].w = math.MinInt64
		f.vs[i].maxn = &f.vs[i]
	}
	return f
}

func isRoot(x *node) bool {
	return x.p == nil || (x.p.l != x && x.p.r != x)
}

func push(x *node) {
	if x.flip {
		x.l, x.r = x.r, x.l
		if x.l != nil {
			x.l.flip = !x.l.flip
		}
		if x.r != nil {
			x.r.flip = !x.r.flip
		}
		x.flip = false
	}
}

func pull(x *node) {
	x.maxn = x
	if x.l != nil && x.l.maxn.w > x.maxn.w {
		x.maxn = x.l.maxn
	}
	if x.r != nil && x.r.maxn.w > x.maxn.w {
		x.maxn = x.r.maxn
	}
}

func rotate(x *node) {
	y := x.p
	z := y.p
	if !isRoot(y) {
		if z.l == y {
			z.l = x
		} else {
			z.r = x
		}
	}
	if y.l == x {
		y.l = x.r
		if y.l != nil {
			y.l.p = y
		}
		x.r = y
	} else {
		y.r = x.l
		if y.r != nil {
			y.r.p = y
		}
		x.l = y
	}
	x.p = z
	y.p = x
	pull(y)
	pull(x)
}

func splay(x *node) {
	// Push lazy flips from the splay root down to x before rotating.
	stack := make([]*node, 0, 64)
	for y := x; ; y = y.p {
		stack = append(stack, y)
		if isRoot(y) {
			break
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		push(stack[i])
	}
	for !isRoot(x) {
		y := x.p
		if !isRoot(y) {
			if (y.l == x) == (y.p.l == y) {
				rotate(y)
			} else {
				rotate(x)
			}
		}
		rotate(x)
	}
}

// access makes the path from x to the root of its represented tree the
// preferred path and splays x to the root of its auxiliary tree.
func access(x *node) {
	splay(x)
	x.r = nil
	pull(x)
	for x.p != nil {
		y := x.p
		splay(y)
		y.r = x
		pull(y)
		splay(x)
	}
}

func makeRoot(x *node) {
	access(x)
	x.flip = !x.flip
	push(x)
}

func findRoot(x *node) *node {
	access(x)
	for {
		push(x)
		if x.l == nil {
			break
		}
		x = x.l
	}
	splay(x)
	return x
}

// Connected reports whether u and v are in the same tree.
func (f *Forest) Connected(u, v int) bool {
	if u == v {
		return true
	}
	return findRoot(&f.vs[u]) == findRoot(&f.vs[v])
}

// Link adds edge (u, v) of weight w to the forest under the caller's ID id,
// which must not be linked already; PathMaxEdge answers name edges by it. u
// and v must be in different trees; Link panics otherwise, since linking
// within a tree would corrupt the forest invariant.
func (f *Forest) Link(u, v int, w int64, id int32) {
	if f.Connected(u, v) {
		panic("lct: Link within one tree")
	}
	for len(f.es) <= int(id) {
		f.es = append(f.es, nil)
	}
	if f.es[id] != nil {
		panic("lct: Link of a linked ID")
	}
	if len(f.free) == 0 {
		f.free = append(f.free, new(edge))
	}
	e := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	*e = edge{n: node{id: id, w: w}, u: int32(u), v: int32(v)}
	e.n.maxn = &e.n
	f.es[id] = e
	// Attach the edge node between u and v: make e the root of a singleton,
	// hang it off u, then hang v's rerooted tree off e.
	makeRoot(&e.n)
	e.n.p = &f.vs[u]
	makeRoot(&f.vs[v])
	f.vs[v].p = &e.n
}

// Cut removes the linked edge id; its node waits for the next Link.
func (f *Forest) Cut(id int32) {
	e := f.es[id]
	f.cutPair(&e.n, &f.vs[e.u])
	f.cutPair(&e.n, &f.vs[e.v])
	f.es[id] = nil
	f.free = append(f.free, e)
}

// Linked reports the endpoints and weight edge id was linked with, and
// whether it is linked now (zero values when not).
func (f *Forest) Linked(id int32) (u, v int, w int64, ok bool) {
	if int(id) >= len(f.es) || f.es[id] == nil {
		return 0, 0, 0, false
	}
	return int(f.es[id].u), int(f.es[id].v), f.es[id].n.w, true
}

// cutPair disconnects adjacent represented-tree nodes x and y.
func (f *Forest) cutPair(x, y *node) {
	makeRoot(x)
	access(y)
	// After access(y) with x as represented root, y's auxiliary tree holds
	// the path x..y; x is y's left descendant and, being adjacent, exactly
	// y.l.
	if y.l != x {
		panic("lct: cut of non-adjacent nodes")
	}
	y.l.p = nil
	y.l = nil
	pull(y)
}

// PathMaxEdge returns the ID of the heaviest edge on the tree path between
// u and v. It panics if u == v or they are disconnected (callers check
// Connected first). Ties are broken arbitrarily.
func (f *Forest) PathMaxEdge(u, v int) int32 {
	if u == v {
		panic("lct: PathMaxEdge with u == v")
	}
	makeRoot(&f.vs[u])
	if findRoot(&f.vs[v]) != &f.vs[u] {
		panic("lct: PathMaxEdge across trees")
	}
	access(&f.vs[v])
	m := f.vs[v].maxn
	if m.id < 0 {
		panic("lct: path maximum is not an edge")
	}
	return m.id
}
