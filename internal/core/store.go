package core

import (
	"fmt"
	"math"

	"parmsf/internal/faultinject"
	"parmsf/internal/graph"
	"parmsf/internal/seqtree"
)

// Config sizes the structure. Zero values are filled by defaults: the
// paper's sequential setting K = sqrt(n log n) (Theorem 1.2) or the parallel
// setting K = sqrt(n) (Theorem 3.1) depending on the charger installed.
type Config struct {
	// K is the chunk size parameter of Invariant 1 (chunks hold between K
	// and 3K weight). Minimum 8.
	K int
	// Fault is the deterministic crash-point injector threaded down from
	// the composing forest (fault-injection testing). Nil is a no-op.
	Fault *faultinject.Injector
}

func (cfg Config) withDefaults(n int, parallel bool) Config {
	if cfg.K == 0 {
		if parallel {
			cfg.K = int(math.Ceil(math.Sqrt(float64(n))))
		} else {
			lg := math.Log2(float64(n) + 2)
			cfg.K = int(math.Ceil(math.Sqrt(float64(n) * lg)))
		}
	}
	if cfg.K < 8 {
		cfg.K = 8
	}
	return cfg
}

// Stats counts structural events, for the ablation benches.
type Stats struct {
	ChunkSplits   int64
	ChunkMerges   int64
	RowRebuilds   int64
	ColumnSweeps  int64
	PathRefreshes int64
	Registers     int64
	Unregisters   int64
	MWRQueries    int64
	TourLinks     int64
	TourCuts      int64
	// EntryScans counts the entry-pair scan kernels actually run; a
	// deletion that cannot change its entry is charged but not scanned.
	EntryScans int64
	// Relabels counts the copies chunk splits and merges moved to another
	// chunk (adoptCopies): the smaller piece of each.
	Relabels int64
}

// Store is the shared state of the Section 2 / Section 3 structure.
type Store struct {
	g   *graph.G
	n   int
	K   int
	J   int
	jw  int // memb words = ceil(J/64)
	ch  Charger
	sts Stats

	// rows is the CAdj matrix (Section 3's two-dimensional matrix C; the
	// sequential algorithm reads the same storage), one J-cell row per
	// chunk id below hi: allocID allocates an id's row, all Inf, the first
	// time it hands the id out, and a freed id keeps its row for reuse.
	// Rows are separate slices, so a new id copies no existing row, only
	// (when the slice grows) the hi row headers.
	// The diagonal is not maintained (MWR never reads it) and stays Inf,
	// as does every cell in a column at or above hi.
	rows [][]Weight

	chunks  []*Chunk // registered chunks by id; nil = free
	freeIDs []int32  // freed ids below hi, reused last-freed first
	// hi is 1 + the largest id allocID has handed out, so it never falls.
	// Freed ids are reused before hi grows, so hi is the peak number of
	// registered chunks. Vector loops run over [0, hi): LSDS vectors and
	// rows start at Inf, and nothing writes a cell at or above hi.
	// Charges stay at J, the paper's model.
	hi int

	btT *seqtree.Tree[btAgg, any]
	lsT *seqtree.Tree[*lsVec, any]

	// pcs is the principal copy of each vertex, or nil while the vertex is
	// implicit: it has never been able to gain an edge, and stands for the
	// one-copy short list every vertex starts as (materialize).
	pcs        []*Copy
	pcid       []int32 // id of the chunk holding pcs[v], -1 if unregistered or implicit
	occU, occV []*Copy // tree-edge occurrence anchors, indexed by edge ID
	tourByRoot map[*lsNode]*Tour
	normal     []*Tour // tours owning registered chunks (column sweeps)

	// normQ is the chunks normalize must revisit, in the order surgery
	// touched them. Surgery appends and normalize drains it, so it is
	// empty between operations.
	normQ []*Chunk

	vecPool []*lsVec

	lsTouches int // internal LSDS vector recomputations (for charging)
	btTouches int // BTc nodes touched (for charging)

	// Row-tournament charge scratch, built on the first charged rebuild.
	rowDests []int32 // chargeRowTournament: destination id per charged edge
	rowPrev  []int32 // chargeTournament: 1 + previous entry per destination

	// Deferred UpdateAdj state of the batch pipeline (flush.go): chunks
	// whose CAdj entries changed since the last aggregate flush, in mark
	// order (each has its dirty flag set).
	pendDirty []*Chunk

	// Pooled batch scratch: reused across batches so the hot classify /
	// shard / flush stages allocate nothing in steady state. Each user
	// resets its slice to [:0] (or empties its map) on entry, never retains
	// the contents across calls, and grows capacity monotonically.
	clsScratch   []opClass        // planBatch: per-op classes
	delSeen      map[[2]int]bool  // planBatch: duplicate-deletion filter
	pairScratch  []entryPair      // applyNonTreeDeletes: deduped chunk pairs
	pairSeen     map[[2]int32]int // applyNonTreeDeletes: pair -> index
	flushNodes   []*lsNode        // flushCAdj: union of dirty ancestor paths
	flushBuckets [][]*lsNode      // flushCAdj: nodes grouped by depth
	flushPath    []*lsNode        // flushCAdj: one leaf's walk upward
	flushCur     []*lsNode        // flushCAdj: bucket the kernel reads
	rootScratch  []*Tour          // planInsertConnectivity: endpoint roots

	// Persistent kernels, built once in NewStore. Each reads its inputs
	// through the Store (the batch in flight, the plan and the scratch
	// above), so no batch, however small, builds a closure: a closure
	// literal handed to the charger would escape to the heap on every call.
	batchOps       []BatchOp   // ApplyBatch: the batch in flight, else nil
	classifyKernel func(i int) // planBatch: class of batchOps[i]
	scanKernel     func(t int) // applyNonTreeDeletes: scan of pairScratch[t], if due
	rootKernel     func(p int) // planInsertConnectivity: rootWalk
	flushKernel    func(i int) // flushCAdj: recompute of flushCur[i]

	// Pooled per-batch pipeline state (plan.go): the plan's stage index
	// slices, the per-item error slots ApplyBatch returns (owned by the
	// engine, valid until the next batch), and the insert-classification
	// union-find of insertclass.go.
	planNonTree []int      // planBatch: non-tree deletion indices
	planTree    []int      // planBatch: tree deletion indices
	planSplice  []int      // planBatch: splice indices
	planIns     []int      // planBatch: insertion indices
	errScratch  []error    // ApplyBatch: per-item error slots
	single      [1]BatchOp // InsertEdge/DeleteEdge: the one-op batch
	ic          insertConn // planInsertConnectivity: pooled result

	// Pooled snapshot-export state (export.go).
	snapRoots []*Tour // ExportComponents: per-vertex tour roots
}

// jSlack scales the chunk id space: J = jSlack*n/K + 8. The analysis needs
// sum(n_c) <= 5n, so 6 leaves headroom for transient states.
const jSlack = 6

// NewStore builds the structure for graph g (which must be empty: edges are
// inserted through the engine). ch selects sequential or PRAM accounting.
// Every vertex starts implicit and no chunk id is registered, so the store
// allocates O(1) objects whatever n is.
func NewStore(g *graph.G, cfg Config, ch Charger) *Store {
	if g.M() != 0 {
		panic("core: NewStore requires an empty graph")
	}
	n := g.N()
	parallel := ch.Machine() != nil
	cfg = cfg.withDefaults(n, parallel)
	J := jSlack*n/cfg.K + 8
	st := &Store{
		g:          g,
		n:          n,
		K:          cfg.K,
		J:          J,
		jw:         (J + 63) / 64,
		ch:         ch,
		chunks:     make([]*Chunk, J),
		tourByRoot: make(map[*lsNode]*Tour),
		pcs:        make([]*Copy, n),
		pcid:       make([]int32, n),
	}
	for v := range st.pcid {
		st.pcid[v] = -1
	}
	st.btT = &seqtree.Tree[btAgg, any]{
		Update: func(nd *btNode) {
			st.btTouches++
			l, r := nd.Left(), nd.Right()
			nd.Agg = btAgg{
				copies: l.Agg.copies + r.Agg.copies,
				edges:  l.Agg.edges + r.Agg.edges,
			}
		},
	}
	st.lsT = &seqtree.Tree[*lsVec, any]{
		Update:   st.lsUpdate,
		OnCreate: func(nd *lsNode) { nd.Agg = st.getVec() },
		OnFree:   func(nd *lsNode) { st.putVec(nd.Agg); nd.Agg = nil },
	}
	st.classifyKernel = func(i int) { st.clsScratch[i] = st.classifyOp(st.batchOps[i]) }
	st.scanKernel = func(t int) {
		if p := st.pairScratch[t]; p.scan {
			st.scanEntryPair(p.a, p.b)
		}
	}
	st.rootKernel = st.rootWalk
	st.flushKernel = func(i int) { st.recomputeVec(st.flushCur[i]) }
	return st
}

// materialize gives implicit vertex v the state every vertex starts with
// in the paper: one principal copy alone in an unregistered chunk, its own
// short-list tour (Section 6). It runs on the host the first time v can
// gain an edge, and v keeps the state after it loses its edges. It charges
// nothing, since the paper's structure holds this state from the start. A
// vertex that already has state is left as it is.
func (st *Store) materialize(v int) {
	if st.pcs[v] == nil {
		st.soloTour(st.newPrincipal(v))
	}
}

// newPrincipal creates v's principal copy, alone in its ring and cyclic
// order, with a detached BTc leaf carrying one copy and no charged edges.
func (st *Store) newPrincipal(v int) *Copy {
	cp := &Copy{v: int32(v), principal: true}
	cp.next, cp.prev = cp, cp
	cp.ringNext, cp.ringPrev = cp, cp
	cp.leaf = st.btT.NewLeaf(cp)
	cp.leaf.Agg = btAgg{copies: 1}
	st.pcs[v] = cp
	return cp
}

// soloTour puts principal copy cp, whose BTc leaf is detached, into a
// fresh one-copy unregistered chunk and a tour of its own: a short list.
func (st *Store) soloTour(cp *Copy) *Tour {
	c := &Chunk{id: -1, bt: cp.leaf}
	c.leaf = st.lsT.NewLeaf(c)
	cp.chunk = c
	st.pcid[cp.v] = -1
	t := &Tour{regIdx: -1}
	st.setRoot(t, c.leaf)
	return t
}

// Stats returns a copy of the structural event counters.
func (st *Store) Stats() Stats { return st.sts }

// Params returns (K, J).
func (st *Store) Params() (int, int) { return st.K, st.J }

// row returns registered chunk id's CAdj row.
func (st *Store) row(id int32) []Weight { return st.rows[id] }

// lsUpdate recomputes an internal LSDS node's vectors, counting the touch
// for the caller's Lemma 2.3 / 3.2 charge.
func (st *Store) lsUpdate(nd *lsNode) {
	st.lsTouches++
	st.recomputeVec(nd)
}

// recomputeVec recomputes an internal LSDS node's vectors as the entrywise
// min / OR of its children (Section 2.2) over the live ids [0, hi): host
// cost O(hi), charged by callers as O(J). It is the uncounted kernel shared
// by the structural Update hook (host) and the batch flush (worker pool),
// so it touches no Store counters and only writes nd's own aggregate.
func (st *Store) recomputeVec(nd *lsNode) {
	v := nd.Agg
	l, r := nd.Left(), nd.Right()
	lc, lm := st.childVecs(l)
	rc, rm := st.childVecs(r)
	cadj := v.cadj[:st.hi]
	if lc == nil {
		copyOrClear(cadj, rc)
	} else if rc == nil {
		copyOrClear(cadj, lc)
	} else {
		lc, rc = lc[:len(cadj)], rc[:len(cadj)]
		for i := range cadj {
			a, b := lc[i], rc[i]
			if b < a {
				a = b
			}
			cadj[i] = a
		}
	}
	memb := v.memb[:(st.hi+63)/64]
	for i := range memb {
		var w uint64
		if lm != nil {
			w = lm[i]
		}
		if rm != nil {
			w |= rm[i]
		}
		memb[i] = w
	}
	if lm == nil {
		if c := leafChunk(l); c != nil {
			setBit(v.memb, int(c.id))
		}
	}
	if rm == nil {
		if c := leafChunk(r); c != nil {
			setBit(v.memb, int(c.id))
		}
	}
}

// childVecs returns a child's contribution: for internal nodes its aggregate
// vectors; for leaves, the chunk's matrix row and a nil memb (the single id
// bit is OR'd in by the caller). Unregistered leaves contribute nothing.
func (st *Store) childVecs(nd *lsNode) ([]Weight, []uint64) {
	if nd.IsLeaf() {
		c := lsItem(nd)
		if c.id < 0 {
			return nil, nil
		}
		return st.row(c.id), nil
	}
	return nd.Agg.cadj, nd.Agg.memb
}

// leafChunk returns the registered chunk of a leaf node, or nil.
func leafChunk(nd *lsNode) *Chunk {
	if !nd.IsLeaf() {
		return nil
	}
	if c := lsItem(nd); c.id >= 0 {
		return c
	}
	return nil
}

// copyOrClear copies src into dst, or fills dst with Inf when src is nil.
func copyOrClear(dst, src []Weight) {
	if src == nil {
		fillInf(dst)
		return
	}
	copy(dst, src)
}

// fillInf sets every cell of w to Inf.
func fillInf(w []Weight) {
	for i := range w {
		w[i] = Inf
	}
}

func setBit(w []uint64, i int) { w[i/64] |= 1 << (uint(i) % 64) }

func hasBit(w []uint64, i int) bool { return w[i/64]&(1<<(uint(i)%64)) != 0 }

func (st *Store) getVec() *lsVec {
	if k := len(st.vecPool); k > 0 {
		v := st.vecPool[k-1]
		st.vecPool = st.vecPool[:k-1]
		return v
	}
	v := &lsVec{cadj: make([]Weight, st.J), memb: make([]uint64, st.jw)}
	fillInf(v.cadj)
	return v
}

func (st *Store) putVec(v *lsVec) {
	if v != nil {
		st.vecPool = append(st.vecPool, v)
	}
}

// allocID registers chunk c in the matrix, with a cleared row and column:
// the last-freed id if any, else hi, which then grows by one and gets its
// row, all Inf. The caller writes the id into pcid for c's principal
// copies (stampPCID, or adoptCopies when c is a fresh split piece).
func (st *Store) allocID(c *Chunk) {
	var id int32
	if k := len(st.freeIDs); k > 0 {
		id = st.freeIDs[k-1]
		st.freeIDs = st.freeIDs[:k-1]
	} else {
		if st.hi == st.J {
			panic(fmt.Sprintf("core: chunk id space exhausted (J=%d); Invariant 1 violated", st.J))
		}
		id = int32(st.hi)
		st.hi++
		row := make([]Weight, st.J)
		fillInf(row)
		st.rows = append(st.rows, row)
	}
	c.id = id
	st.chunks[id] = c
}

func (st *Store) freeID(c *Chunk) {
	st.chunks[c.id] = nil
	st.freeIDs = append(st.freeIDs, c.id)
	c.id = -1
}

// tourOf returns the tour containing chunk c.
func (st *Store) tourOf(c *Chunk) *Tour {
	root := seqtree.Root(c.leaf)
	t := st.tourByRoot[root]
	if t == nil {
		panic("core: chunk not attached to a tour")
	}
	return t
}

// setRoot points tour t at root, updating the root index.
func (st *Store) setRoot(t *Tour, root *lsNode) {
	if t.root != nil && st.tourByRoot[t.root] == t {
		delete(st.tourByRoot, t.root)
	}
	t.root = root
	if root != nil {
		st.tourByRoot[root] = t
	}
}

// dropTour removes t entirely (after its chunks moved elsewhere).
func (st *Store) dropTour(t *Tour) {
	st.setNormal(t, false)
	if t.root != nil && st.tourByRoot[t.root] == t {
		delete(st.tourByRoot, t.root)
	}
	t.root = nil
}

// setNormal adds/removes t from the registry of tours owning registered
// chunks (used by column sweeps).
func (st *Store) setNormal(t *Tour, normal bool) {
	if normal == (t.regIdx >= 0) {
		return
	}
	if normal {
		t.regIdx = int32(len(st.normal))
		st.normal = append(st.normal, t)
		return
	}
	last := len(st.normal) - 1
	st.normal[t.regIdx] = st.normal[last]
	st.normal[t.regIdx].regIdx = t.regIdx
	st.normal = st.normal[:last]
	t.regIdx = -1
}
