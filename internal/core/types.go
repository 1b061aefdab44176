// Package core implements the paper's dynamic MSF structure: Euler tours of
// the forest stored as cyclic lists of vertex copies, partitioned into
// chunks, with per-chunk CAdj/Memb connectivity vectors aggregated by a list
// sum data structure (LSDS), supporting surgical list operations and
// minimum-weight-replacement (MWR) edge queries (Sections 2, 3 and 6).
//
// One shared state (Store) serves both the sequential algorithm of Section 2
// and the EREW PRAM algorithm of Section 3; the difference is the Charger
// (cost accounting + parallel kernels) installed in the Store. The MSF
// engine (engine.go) drives the Store together with a link-cut forest for
// heaviest-edge-on-path queries.
package core

import (
	"math"

	"parmsf/internal/seqtree"
)

// Weight is an edge weight. The algorithm only compares weights, so int64
// stands in for the paper's real numbers.
type Weight = int64

// Inf is the "no edge" sentinel in CAdj vectors.
const Inf Weight = math.MaxInt64

// Copy is one occurrence of a graph vertex in the Euler tour of its tree
// (Section 2.2). Copies of a vertex form a small ring (degree <= 3 implies
// at most 3, plus one transiently during surgery); exactly one copy of each
// vertex is principal, and the chunk holding the principal copy is charged
// with the vertex's incident edges.
type Copy struct {
	v          int32
	next, prev *Copy // cyclic Euler-tour order, across chunk boundaries
	ringNext   *Copy // ring of copies of the same vertex
	ringPrev   *Copy
	chunk      *Chunk
	leaf       *btNode // this copy's leaf in its chunk's BTc
	principal  bool
}

// btAgg is the BTc aggregate (Figure 2): subtree copy count and the edge
// counters ("ecv") counting edges incident to principal copies below.
type btAgg struct {
	copies int32
	edges  int32
}

// btNode and lsNode erase their item types to any: a direct
// Node[btAgg,*Copy] / Node[*lsVec,*Chunk] pair would form a mutual generic
// instantiation cycle (Copy -> Chunk -> Node[...,*Chunk] and Chunk -> Copy
// -> Node[...,*Copy]) that the Go type checker rejects. btItem / lsItem
// recover the typed items.
type btNode = seqtree.Node[btAgg, any]

// lsVec is the aggregate of an internal LSDS node: the entrywise minimum of
// the CAdj vectors and entrywise OR of the Memb vectors of the chunks below
// it (Section 2.2, Figure 1). Vectors are J entries long; memb is a bitset.
type lsVec struct {
	cadj    []Weight
	memb    []uint64
	flushAt int32 // flushCAdj: 1 + the node's depth from its root while collected, else 0
}

type lsNode = seqtree.Node[*lsVec, any]

// btItem returns the copy stored at a BTc leaf.
func btItem(n *btNode) *Copy { return n.Item.(*Copy) }

// lsItem returns the chunk stored at an LSDS leaf.
func lsItem(n *lsNode) *Chunk { return n.Item.(*Chunk) }

// Chunk is a contiguous segment of one Euler tour's copy list (Section 2.2).
// Its copies are the leaves of bt (the BTc of Section 3, kept in both
// drivers because it also locates split positions); its id indexes the
// global CAdj matrix, or is -1 while the chunk is the single chunk of a
// short list (Section 6).
type Chunk struct {
	id       int32
	bt       *btNode // root of this chunk's BTc; nil once the chunk is dead
	leaf     *lsNode // this chunk's leaf in its tour's LSDS
	rowStale bool    // charged-edge set changed; row rebuild pending
	dirty    bool    // in Store.pendDirty: LSDS path refresh pending
}

// nc returns n_c of Invariant 1: #copies + #edges charged to the chunk.
// (Leaf aggregates hold the leaf's own contribution, so root Agg is always
// the chunk total.)
func (c *Chunk) nc() int { return int(c.bt.Agg.copies + c.bt.Agg.edges) }

// size returns the number of copies in the chunk.
func (c *Chunk) size() int { return int(c.bt.Agg.copies) }

// edgeCount returns the number of edge incidences charged to the chunk.
func (c *Chunk) edgeCount() int { return int(c.bt.Agg.edges) }

// Tour is one Euler tour: a forest tree's copy list, stored as the
// concatenation of its chunks in LSDS leaf order, read cyclically.
type Tour struct {
	root   *lsNode
	regIdx int32 // index in Store.normal, or -1 when the tour is short
	tok    int32 // densify: 1 + the tour's dense id during a call, else 0
}

// Short reports whether the tour is a short list (Section 6): a single
// chunk that is not registered in the CAdj matrix.
func (t *Tour) Short() bool {
	return t.root.IsLeaf() && lsItem(t.root).id < 0
}

// Chunks returns the number of chunks in the tour.
func (t *Tour) Chunks() int { return seqtree.LeafCount(t.root) }
