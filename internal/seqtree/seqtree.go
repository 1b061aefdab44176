// Package seqtree implements a balanced sequence tree: a leaf-based AVL tree
// with parent pointers whose leaves form an ordered sequence of items.
//
// It supports the operations the paper requires from its 2-3 trees (Sections
// 2.2-2.4 and 3): insert a leaf next to another, delete a leaf, split the
// sequence at a leaf, join two sequences, and maintain per-node aggregates
// via a caller-supplied hook. All structural operations touch O(log n) nodes,
// matching the 2-3 tree bounds used in Lemmas 2.3 and 3.2; an AVL shape is
// used instead of a 2-3 shape because binary nodes make the aggregation and
// rotation code simpler while giving identical asymptotics.
//
// Callers own leaves; the tree owns internal nodes and recycles them through
// a free list, invoking OnCreate / OnFree so callers can pool per-node
// aggregate storage (the paper's CAdj/Memb vectors).
package seqtree

// Node is a tree node. Leaves carry an Item; every node carries an Agg
// aggregate value maintained by the Tree's Update hook.
type Node[A, I any] struct {
	parent, left, right *Node[A, I]
	h                   int16
	leaf                bool
	Agg                 A
	Item                I
}

// IsLeaf reports whether n is a leaf.
func (n *Node[A, I]) IsLeaf() bool { return n.leaf }

// Left returns the left child (nil for leaves).
func (n *Node[A, I]) Left() *Node[A, I] { return n.left }

// Right returns the right child (nil for leaves).
func (n *Node[A, I]) Right() *Node[A, I] { return n.right }

// Parent returns the parent node (nil at the root).
func (n *Node[A, I]) Parent() *Node[A, I] { return n.parent }

// Height returns the height of the subtree rooted at n (leaves have height
// 0).
func (n *Node[A, I]) Height() int { return int(n.h) }

// Tree holds the hooks and the internal-node free list for one family of
// sequence trees. Many sequences (roots) may share a single Tree; the Tree
// itself stores no per-sequence state.
type Tree[A, I any] struct {
	// Update recomputes n.Agg from n's children. It is called bottom-up on
	// every internal node whose child set or descendant data changed. It is
	// never called on leaves: leaf aggregates are set by the caller, who
	// must call RefreshUp afterwards.
	Update func(n *Node[A, I])
	// OnCreate, if non-nil, is called when an internal node is (re)issued
	// from the allocator, before it is linked into a tree.
	OnCreate func(n *Node[A, I])
	// OnFree, if non-nil, is called when an internal node is released, after
	// it is unlinked.
	OnFree func(n *Node[A, I])

	free *Node[A, I] // free list threaded through parent pointers
}

// NewLeaf returns a fresh detached leaf carrying item. Leaves are owned by
// the caller and are never recycled by the tree.
func (t *Tree[A, I]) NewLeaf(item I) *Node[A, I] {
	return &Node[A, I]{leaf: true, Item: item}
}

func height[A, I any](n *Node[A, I]) int16 {
	if n == nil {
		return -1
	}
	return n.h
}

func (t *Tree[A, I]) acquire() *Node[A, I] {
	n := t.free
	if n != nil {
		t.free = n.parent
		*n = Node[A, I]{}
	} else {
		n = &Node[A, I]{}
	}
	if t.OnCreate != nil {
		t.OnCreate(n)
	}
	return n
}

func (t *Tree[A, I]) release(n *Node[A, I]) {
	if t.OnFree != nil {
		t.OnFree(n)
	}
	var zero Node[A, I]
	*n = zero
	n.parent = t.free
	t.free = n
}

// fix recomputes n's height and aggregate from its children.
func (t *Tree[A, I]) fix(n *Node[A, I]) {
	if n.leaf {
		return
	}
	lh, rh := n.left.h, n.right.h
	if lh > rh {
		n.h = lh + 1
	} else {
		n.h = rh + 1
	}
	if t.Update != nil {
		t.Update(n)
	}
}

// mk builds an internal node over detached subtrees l and r.
func (t *Tree[A, I]) mk(l, r *Node[A, I]) *Node[A, I] {
	n := t.acquire()
	n.left, n.right = l, r
	l.parent, r.parent = n, n
	t.fix(n)
	return n
}

// replaceChild makes child occupy the tree position of old under parent p.
// p may be nil, in which case child becomes a root.
func replaceChild[A, I any](p, old, child *Node[A, I]) {
	child.parent = p
	if p == nil {
		return
	}
	if p.left == old {
		p.left = child
	} else {
		p.right = child
	}
}

// rotL performs a left rotation at x and returns the node now occupying x's
// position. x and x.right must be internal.
func (t *Tree[A, I]) rotL(x *Node[A, I]) *Node[A, I] {
	y := x.right
	replaceChild(x.parent, x, y)
	x.right = y.left
	x.right.parent = x
	y.left = x
	x.parent = y
	t.fix(x)
	t.fix(y)
	return y
}

// rotR performs a right rotation at x and returns the node now occupying x's
// position. x and x.left must be internal.
func (t *Tree[A, I]) rotR(x *Node[A, I]) *Node[A, I] {
	y := x.left
	replaceChild(x.parent, x, y)
	x.left = y.right
	x.left.parent = x
	y.right = x
	x.parent = y
	t.fix(x)
	t.fix(y)
	return y
}

// balance restores the AVL invariant at n (assuming subtrees below are
// balanced and at most 2 out of balance at n) and returns the node now
// occupying n's position, with height and aggregate fixed.
func (t *Tree[A, I]) balance(n *Node[A, I]) *Node[A, I] {
	if n.leaf {
		return n
	}
	bf := height(n.left) - height(n.right)
	switch {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			t.rotL(n.left)
		}
		return t.rotR(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			t.rotR(n.right)
		}
		return t.rotL(n)
	default:
		t.fix(n)
		return n
	}
}

// rebalanceUp rebalances from n to the root and returns the root.
func (t *Tree[A, I]) rebalanceUp(n *Node[A, I]) *Node[A, I] {
	for {
		n = t.balance(n)
		if n.parent == nil {
			return n
		}
		n = n.parent
	}
}

// RefreshUp recalls the Update hook on every strict ancestor of n, bottom-up,
// and returns the root. Use after changing a leaf's aggregate inputs without
// changing structure.
func (t *Tree[A, I]) RefreshUp(n *Node[A, I]) *Node[A, I] {
	for n.parent != nil {
		n = n.parent
		if t.Update != nil {
			t.Update(n)
		}
	}
	return n
}

// Root returns the root of the tree containing n.
func Root[A, I any](n *Node[A, I]) *Node[A, I] {
	for n.parent != nil {
		n = n.parent
	}
	return n
}

// Join concatenates sequences a and b (either may be nil) and returns the
// root of the combined tree. a and b must be detached roots.
func (t *Tree[A, I]) Join(a, b *Node[A, I]) *Node[A, I] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	d := a.h - b.h
	if d >= -1 && d <= 1 {
		return t.mk(a, b)
	}
	if d > 1 {
		// Descend a's right spine to a node c with height <= b.h+1.
		c := a
		for c.h > b.h+1 {
			c = c.right
		}
		p := c.parent
		n := t.mk(c, b)
		n.parent = p
		p.right = n
		return t.rebalanceUp(p)
	}
	// Symmetric: descend b's left spine.
	c := b
	for c.h > a.h+1 {
		c = c.left
	}
	p := c.parent
	n := t.mk(a, c)
	n.parent = p
	p.left = n
	return t.rebalanceUp(p)
}

// SplitBefore splits the sequence containing leaf v into (l, r) where r
// begins with v. l is nil when v is the first leaf. Both results are
// detached roots.
func (t *Tree[A, I]) SplitBefore(v *Node[A, I]) (l, r *Node[A, I]) {
	if !v.leaf {
		panic("seqtree: SplitBefore on internal node")
	}
	// Record the root path first: releasing nodes while walking would let
	// Join recycle a node whose address we still need for side tests. The
	// path lives in a stack array sized past any AVL height reached here
	// (depth 48 needs over 10^10 leaves); append spills only beyond it.
	type step struct {
		node    *Node[A, I]
		sibling *Node[A, I]
		wasLeft bool
	}
	var buf [48]step
	path := buf[:0]
	child := v
	for p := v.parent; p != nil; p = p.parent {
		wasLeft := p.left == child
		var sib *Node[A, I]
		if wasLeft {
			sib = p.right
		} else {
			sib = p.left
		}
		path = append(path, step{p, sib, wasLeft})
		child = p
	}
	v.parent = nil
	r = v
	for _, s := range path {
		s.sibling.parent = nil
		t.release(s.node)
		if s.wasLeft {
			r = t.Join(r, s.sibling)
		} else {
			l = t.Join(s.sibling, l)
		}
	}
	return l, r
}

// InsertBefore inserts detached leaf nl immediately before leaf at, and
// returns the new root.
func (t *Tree[A, I]) InsertBefore(at, nl *Node[A, I]) *Node[A, I] {
	return t.insertBeside(at, nl, true)
}

// InsertAfter inserts detached leaf nl immediately after leaf at, and
// returns the new root.
func (t *Tree[A, I]) InsertAfter(at, nl *Node[A, I]) *Node[A, I] {
	return t.insertBeside(at, nl, false)
}

func (t *Tree[A, I]) insertBeside(at, nl *Node[A, I], before bool) *Node[A, I] {
	if !at.leaf || !nl.leaf {
		panic("seqtree: insert requires leaves")
	}
	p := at.parent
	var n *Node[A, I]
	if before {
		n = t.mk(nl, at)
	} else {
		n = t.mk(at, nl)
	}
	n.parent = p
	if p == nil {
		return n
	}
	if p.left == at {
		p.left = n
	} else {
		p.right = n
	}
	return t.rebalanceUp(p)
}

// DeleteLeaf removes leaf v from its tree and returns the new root (nil if v
// was the only leaf). v is detached but not destroyed; the caller owns it.
func (t *Tree[A, I]) DeleteLeaf(v *Node[A, I]) *Node[A, I] {
	if !v.leaf {
		panic("seqtree: DeleteLeaf on internal node")
	}
	p := v.parent
	v.parent = nil
	if p == nil {
		return nil
	}
	var sib *Node[A, I]
	if p.left == v {
		sib = p.right
	} else {
		sib = p.left
	}
	gp := p.parent
	replaceChild(gp, p, sib)
	t.release(p)
	if gp == nil {
		return sib
	}
	return t.rebalanceUp(gp)
}

// First returns the first leaf of the subtree rooted at n.
func First[A, I any](n *Node[A, I]) *Node[A, I] {
	for !n.leaf {
		n = n.left
	}
	return n
}

// Last returns the last leaf of the subtree rooted at n.
func Last[A, I any](n *Node[A, I]) *Node[A, I] {
	for !n.leaf {
		n = n.right
	}
	return n
}

// Next returns the leaf following v in its sequence, or nil at the end.
func Next[A, I any](v *Node[A, I]) *Node[A, I] {
	n := v
	for n.parent != nil && n.parent.right == n {
		n = n.parent
	}
	if n.parent == nil {
		return nil
	}
	return First(n.parent.right)
}

// Prev returns the leaf preceding v in its sequence, or nil at the start.
func Prev[A, I any](v *Node[A, I]) *Node[A, I] {
	n := v
	for n.parent != nil && n.parent.left == n {
		n = n.parent
	}
	if n.parent == nil {
		return nil
	}
	return Last(n.parent.left)
}

// Leaves calls f on every leaf of the subtree rooted at n, in sequence
// order, stopping early if f returns false. n may be nil.
func Leaves[A, I any](n *Node[A, I], f func(*Node[A, I]) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf {
		return f(n)
	}
	return Leaves(n.left, f) && Leaves(n.right, f)
}

// LeafCount returns the number of leaves below n (0 for nil).
func LeafCount[A, I any](n *Node[A, I]) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return LeafCount(n.left) + LeafCount(n.right)
}
