// Package cluster shards a dynamic minimum spanning forest across k
// independent parmsf.Forest instances, partitioning the vertex space so
// that disjoint write streams scale with the shard count instead of
// serializing behind one engine lock.
//
// A Placement policy assigns every vertex to a shard. Updates whose
// endpoints share a shard route directly to that shard's ingest queue;
// cross-shard edges route to a coordinator forest whose vertices are the
// shard-boundary endpoints (registered densely on first touch) — the
// cluster analogue of the Section 5 sparsification tree's contraction
// step: the global MSF is the MSF of the union of the per-shard MSFs and
// the coordinator's MSF, because an edge outside its own subgraph's MSF is
// the heaviest edge on a cycle and can never enter the global MSF (the
// matroid circuit property survives the union).
//
// Each shard is a full parmsf.Forest: its own mutator lock, coalescing
// ingest drainer, O(delta) snapshot plane, live-edge journal, and
// AutoRecover — so a shard is also a failure domain: a poisoned shard
// fails its own submissions fast while every other shard keeps serving,
// and recovery replays only that shard's journal.
//
// Global reads compose the shard snapshots at a pinned epoch vector: one
// immutable snapshot per shard plus the coordinator's, acquired lock-free,
// then one batch.MSF pass over their union (at most n-1 shard forest edges
// plus the coordinator forest). The composed view is cached and reused
// until any shard publishes a new epoch; a reader that finds the composer
// busy serves the previous cached view — stale by at most the in-flight
// composition, but internally consistent (it was composed from one pinned
// epoch vector). Reads therefore never block writes and never stop the
// world. Weight, Size, Components and Connected are tie-break independent
// across minimum spanning forests, so the composed answers are
// bit-identical to a flat single-forest twin's even where duplicate
// weights leave the edge set ambiguous.
package cluster

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"parmsf"
	"parmsf/internal/batch"
	"parmsf/internal/ingest"
)

// ErrShards reports a New with a shard count below 1.
var ErrShards = errors.New("cluster: shard count must be >= 1")

// ErrPlacement reports a New whose placement policy returned an owner
// outside [0, k) for some vertex.
var ErrPlacement = errors.New("cluster: placement returned a shard out of range")

// Options configures a Cluster.
type Options struct {
	// Shard configures every shard forest and the coordinator (each gets
	// its own independent instance: queue, drainer, journal, publisher).
	// MaxEdges applies per shard, scaled by the shard's own vertex count
	// when zero, as with parmsf.New.
	Shard parmsf.Options
	// Placement assigns vertices to shards; nil selects Ranges(n, k).
	Placement Placement
	// MaxBoundary caps how many distinct vertices may ever appear as a
	// cross-shard (boundary) endpoint; it sizes the coordinator forest.
	// 0 selects n (always safe). Inserting a cross-shard edge past the cap
	// fails with parmsf.ErrCapacity. A single-shard cluster has no cross
	// edges and ignores this.
	MaxBoundary int
}

// Cluster is a sharded dynamic MSF over global vertices 0..n-1. Create
// with New, release with Close. Writes route by the placement table;
// reads answer from the composed cached view. All methods are safe for
// concurrent use.
type Cluster struct {
	n, k  int
	opt   Options
	owner []int32   // owner[v] = shard of global vertex v
	local []int32   // local[v] = dense id of v inside its shard
	verts [][]int32 // verts[s][local] = global vertex (reverse of local)

	shards []*parmsf.Forest
	coord  *parmsf.Forest
	all    []*parmsf.Forest // shards then coordinator: the epoch-vector order

	// Boundary registry: dense first-touch coordinator ids for cross-shard
	// endpoints. bvert's backing array is fixed at New (never reallocated),
	// so the composer may read bvert[id] without bmu for any id that
	// appears in a coordinator snapshot — the registration wrote the entry
	// before the edge was submitted, and snapshot acquisition orders that
	// write before the read.
	bmu   sync.Mutex
	bid   []int32 // global vertex -> boundary id, -1 unregistered
	bvert []int32 // boundary id -> global vertex
	bn    int32   // boundary ids assigned
	maxB  int

	// Composed-view cache. cmu serializes composition; readers that lose
	// the TryLock race serve the cached view (stale by at most one
	// in-flight composition, never torn).
	cmu  sync.Mutex
	view atomic.Pointer[view]
	cand []batch.Item // composer scratch, guarded by cmu
	msf  batch.MSF
}

// view is one composed global answer set, pinned to the epoch vector it
// was built from. Immutable once published.
type view struct {
	epochs []uint64 // one per shard, coordinator last
	weight int64
	size   int
	comps  int
	comp   []int32       // dense global component ids
	edges  []parmsf.Edge // the composed global MSF, ascending (W, U, V)
}

// New creates an empty k-shard cluster over n global vertices (n >= 2,
// k >= 1). Vertices are distributed by opt.Placement (default contiguous
// ranges); each shard forest is built over its own dense vertex space from
// opt.Shard, as is the coordinator (sized by opt.MaxBoundary).
func New(n, k int, opt Options) (*Cluster, error) {
	if n < 2 {
		return nil, parmsf.ErrTooFewVertices
	}
	if k < 1 {
		return nil, ErrShards
	}
	place := opt.Placement
	if place == nil {
		place = Ranges(n, k)
	}
	c := &Cluster{
		n:     n,
		k:     k,
		opt:   opt,
		owner: make([]int32, n),
		local: make([]int32, n),
		verts: make([][]int32, k),
		bid:   make([]int32, n),
	}
	for v := 0; v < n; v++ {
		s := place.Shard(v)
		if s < 0 || s >= k {
			return nil, ErrPlacement
		}
		c.owner[v] = int32(s)
		c.local[v] = int32(len(c.verts[s]))
		c.verts[s] = append(c.verts[s], int32(v))
		c.bid[v] = -1
	}
	c.maxB = opt.MaxBoundary
	if c.maxB <= 0 || c.maxB > n {
		c.maxB = n
	}
	if k == 1 {
		c.maxB = 2 // no cross edges exist; keep the idle coordinator minimal
	}
	if c.maxB < 2 {
		c.maxB = 2
	}
	c.bvert = make([]int32, c.maxB)
	c.shards = make([]*parmsf.Forest, k)
	for s := 0; s < k; s++ {
		localN := len(c.verts[s])
		if localN < 2 {
			localN = 2 // parmsf floor; phantom vertices are never referenced
		}
		f, err := parmsf.New(localN, opt.Shard)
		if err != nil {
			return nil, err
		}
		c.shards[s] = f
	}
	coord, err := parmsf.New(c.maxB, opt.Shard)
	if err != nil {
		return nil, err
	}
	c.coord = coord
	c.all = append(append([]*parmsf.Forest{}, c.shards...), c.coord)
	return c, nil
}

// MustNew is New for static configurations known to be valid: it panics
// on error.
func MustNew(n, k int, opt Options) *Cluster {
	c, err := New(n, k, opt)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the global vertex count.
func (c *Cluster) N() int { return c.n }

// K returns the shard count.
func (c *Cluster) K() int { return c.k }

// Shard returns shard s's underlying forest — for stats, fault injection
// and recovery (Poisoned/Recover/ArmFault). Updates and queries should go
// through the cluster, which owns the vertex-id translation.
func (c *Cluster) Shard(s int) *parmsf.Forest { return c.shards[s] }

// Coordinator returns the cross-shard coordinator forest (vertex ids are
// boundary ids, not global ids).
func (c *Cluster) Coordinator() *parmsf.Forest { return c.coord }

// boundaryPair resolves the boundary ids of a cross-shard edge's
// endpoints. With create set, unregistered endpoints are assigned the next
// dense ids (failing only past MaxBoundary); without it, an unregistered
// endpoint reports ok=false — the edge cannot exist in the coordinator.
func (c *Cluster) boundaryPair(u, v int, create bool) (bu, bv int32, ok bool) {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	bu, bv = c.bid[u], c.bid[v]
	if !create {
		return bu, bv, bu >= 0 && bv >= 0
	}
	need := 0
	if bu < 0 {
		need++
	}
	if bv < 0 {
		need++
	}
	if int(c.bn)+need > c.maxB {
		return 0, 0, false
	}
	if bu < 0 {
		bu = c.bn
		c.bid[u] = bu
		c.bvert[bu] = int32(u)
		c.bn++
	}
	if bv < 0 {
		bv = c.bn
		c.bid[v] = bv
		c.bvert[bv] = int32(v)
		c.bn++
	}
	return bu, bv, true
}

// route resolves where update up applies: the index into c.all of its
// target forest — the owning shard, or the coordinator for a cross-shard
// edge — and the edge's endpoints in that forest's vertex space. An update
// no forest can take fails instead: a malformed insertion (bad pair or
// weight) with parmsf.ErrBadEdge and a deletion of a malformed pair with
// parmsf.ErrNotFound — both before any boundary id is registered — a
// cross-shard insertion whose new boundary endpoints would exceed
// Options.MaxBoundary with parmsf.ErrCapacity, and a cross-shard deletion
// whose endpoints were never boundary-registered — so no edge can exist —
// with parmsf.ErrNotFound.
func (c *Cluster) route(up parmsf.Update) (t, lu, lv int, err error) {
	u, v := up.U, up.V
	badPair := u < 0 || u >= c.n || v < 0 || v >= c.n || u == v
	switch {
	case up.Delete && badPair:
		return 0, 0, 0, parmsf.ErrNotFound
	case !up.Delete && (badPair || up.W < parmsf.MinWeight || up.W == math.MaxInt64):
		return 0, 0, 0, parmsf.ErrBadEdge
	}
	if su, sv := c.owner[u], c.owner[v]; su == sv {
		return int(su), int(c.local[u]), int(c.local[v]), nil
	}
	bu, bv, ok := c.boundaryPair(u, v, !up.Delete)
	switch {
	case ok:
		return c.k, int(bu), int(bv), nil
	case up.Delete:
		return 0, 0, 0, parmsf.ErrNotFound
	}
	return 0, 0, 0, parmsf.ErrCapacity
}

// Insert synchronously adds edge (u, v) with weight w, routing to the
// owning shard or — for a cross-shard edge — the coordinator. Errors as
// parmsf.Forest.Insert, plus parmsf.ErrCapacity when registering a new
// boundary endpoint would exceed Options.MaxBoundary.
func (c *Cluster) Insert(u, v int, w parmsf.Weight) error {
	t, lu, lv, err := c.route(parmsf.Update{U: u, V: v, W: w})
	if err != nil {
		return err
	}
	return c.all[t].Insert(lu, lv, w)
}

// Delete synchronously removes edge (u, v). Errors as
// parmsf.Forest.Delete; a cross-shard pair whose endpoints were never
// boundary-registered cannot hold an edge and reports parmsf.ErrNotFound
// without consulting the coordinator.
func (c *Cluster) Delete(u, v int) error {
	t, lu, lv, err := c.route(parmsf.Update{U: u, V: v, Delete: true})
	if err != nil {
		return err
	}
	return c.all[t].Delete(lu, lv)
}

// Submit enqueues one update on the owning shard's (or the coordinator's)
// ingest queue and returns its Pending result. Updates to different
// shards admit and drain fully independently; updates to one shard keep
// their submission order. Backpressure is per shard queue.
func (c *Cluster) Submit(up parmsf.Update) *parmsf.Pending {
	t, lu, lv, err := c.route(up)
	if err != nil {
		return ingest.NewFailed(err)
	}
	up.U, up.V = lu, lv
	return c.all[t].Submit(up)
}

// SubmitBatch enqueues ups, fanning the batch out to the owning shards'
// queues (one SubmitBatch per touched shard, so a k-way disjoint batch
// pays k queue slots total) and returns one Pending per update, in input
// order. Per-edge order is preserved: an edge always routes to the same
// forest, and each forest applies its sub-batch in slice order.
func (c *Cluster) SubmitBatch(ups []parmsf.Update) []*parmsf.Pending {
	if len(ups) == 0 {
		return nil
	}
	res := make([]*parmsf.Pending, len(ups))
	type group struct {
		ops []parmsf.Update
		idx []int
	}
	groups := make([]group, len(c.all))
	for i, up := range ups {
		t, lu, lv, err := c.route(up)
		if err != nil {
			res[i] = ingest.NewFailed(err)
			continue
		}
		up.U, up.V = lu, lv
		groups[t].ops = append(groups[t].ops, up)
		groups[t].idx = append(groups[t].idx, i)
	}
	for t, g := range groups {
		if len(g.ops) == 0 {
			continue
		}
		for j, p := range c.all[t].SubmitBatch(g.ops) {
			res[g.idx[j]] = p
		}
	}
	return res
}

// Flush blocks until every update submitted to any shard (and the
// coordinator) before the call has applied, returning the first error.
func (c *Cluster) Flush() error {
	var first error
	for _, f := range c.all {
		if err := f.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close drains and closes every shard and the coordinator.
func (c *Cluster) Close() {
	for _, f := range c.all {
		f.Close()
	}
}

// IngestStats aggregates the shard and coordinator drainer counters:
// updates applied, engine batches they coalesced into, and updates
// annihilated by pair cancellation (with parmsf's CoalesceCancel).
func (c *Cluster) IngestStats() (ops, batches, cancelled uint64) {
	for _, f := range c.all {
		o, b := f.IngestStats()
		ops += o
		batches += b
		cancelled += f.IngestCancelled()
	}
	return ops, batches, cancelled
}

// Epochs returns the epoch vector of the current composed view: one entry
// per shard, the coordinator's last. A shard's entry advances only when
// that shard applies an update, so a poisoned or idle shard holds its
// epoch while the others move.
func (c *Cluster) Epochs() []uint64 {
	v := c.current()
	out := make([]uint64, len(v.epochs))
	copy(out, v.epochs)
	return out
}

// Connected reports whether global vertices u and v are in one component
// of the composed MSF. Never blocks writers.
func (c *Cluster) Connected(u, v int) bool {
	if u < 0 || u >= c.n || v < 0 || v >= c.n {
		return false
	}
	vw := c.current()
	return vw.comp[u] == vw.comp[v]
}

// Weight returns the composed global MSF's total weight.
func (c *Cluster) Weight() parmsf.Weight {
	return c.current().weight
}

// Size returns the composed global MSF's edge count.
func (c *Cluster) Size() int {
	return c.current().size
}

// Components returns the number of connected components (isolated
// vertices count as components).
func (c *Cluster) Components() int {
	return c.current().comps
}

// Edges calls fn for every edge of the composed global MSF in ascending
// (W, U, V) order, with global vertex ids, stopping early on false. The
// iteration observes one pinned epoch vector.
func (c *Cluster) Edges(fn func(u, v int, w parmsf.Weight) bool) {
	for _, e := range c.current().edges {
		if !fn(e.U, e.V, e.W) {
			return
		}
	}
}

// current returns a composed view no staler than the cached one: if every
// forest still sits at the cached epoch vector the cache is exact; if not,
// one reader recomposes while any concurrent readers serve the cached
// (consistent, slightly stale) view rather than queueing behind it.
func (c *Cluster) current() *view {
	if v := c.view.Load(); v != nil && c.fresh(v) {
		return v
	}
	if c.cmu.TryLock() {
		defer c.cmu.Unlock()
		if v := c.view.Load(); v != nil && c.fresh(v) {
			return v
		}
		nv := c.composeLocked()
		c.view.Store(nv)
		return nv
	}
	if v := c.view.Load(); v != nil {
		return v
	}
	// No cached view yet (first readers racing): wait for the composer.
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if v := c.view.Load(); v != nil {
		return v
	}
	nv := c.composeLocked()
	c.view.Store(nv)
	return nv
}

// fresh reports whether v's epoch vector still matches every forest's
// current epoch.
func (c *Cluster) fresh(v *view) bool {
	for i, f := range c.all {
		if f.Epoch() != v.epochs[i] {
			return false
		}
	}
	return true
}

// composeLocked builds the composed global view under cmu: acquire one
// immutable snapshot per forest (pinning the epoch vector), translate the
// shard MSF edges to global ids and the coordinator's to their registered
// global endpoints, and classify the union with the static MSF kernel —
// sound by the composition lemma (see the package comment), and at most
// n-1 shard edges plus the coordinator forest, independent of the live
// edge count.
func (c *Cluster) composeLocked() *view {
	snaps := make([]*parmsf.Snapshot, len(c.all))
	epochs := make([]uint64, len(c.all))
	for i, f := range c.all {
		s := f.Snapshot()
		snaps[i] = s
		epochs[i] = s.Epoch()
	}
	cand := c.cand[:0]
	add := func(gu, gv int32, w int64) {
		if gu > gv {
			gu, gv = gv, gu
		}
		cand = append(cand, batch.Item{Key: w, A: int(gu), B: int(gv), Idx: len(cand)})
	}
	for s := 0; s < c.k; s++ {
		vs := c.verts[s]
		snaps[s].Edges(func(u, v int, w int64) bool {
			add(vs[u], vs[v], w)
			return true
		})
	}
	snaps[c.k].Edges(func(u, v int, w int64) bool {
		add(c.bvert[u], c.bvert[v], w)
		return true
	})
	for _, s := range snaps {
		s.Release()
	}
	c.cand = cand

	tree := c.msf.Classify(nil, c.n, cand, nil)
	nv := &view{
		epochs: epochs,
		size:   len(tree),
		comp:   make([]int32, c.n),
		edges:  make([]parmsf.Edge, len(tree)),
	}
	for i, it := range tree {
		nv.weight += it.Key
		nv.edges[i] = parmsf.Edge{U: it.A, V: it.B, W: it.Key}
	}
	for v := range nv.comp {
		nv.comp[v] = -1
	}
	for v := 0; v < c.n; v++ {
		r := c.msf.Find(v)
		if nv.comp[r] < 0 {
			nv.comp[r] = int32(nv.comps)
			nv.comps++
		}
		nv.comp[v] = nv.comp[r]
	}
	return nv
}
