package sparsify

import (
	"cmp"
	"fmt"
	"slices"

	"parmsf/internal/batch"
	"parmsf/internal/faultinject"
	"parmsf/internal/pram"
)

// Crash points of the sparsification tree (see Forest.Fault).
var (
	fpRunBatch = faultinject.Register("sparsify/run-batch")
	fpNodeTask = faultinject.Register("sparsify/node-task")
)

// This file implements the batch path of the sparsification tree: a whole
// batch of updates enters at the lowest stored level and propagates to the
// root, each node applying the net forest delta of its children (the
// paper's REdges bookkeeping). The steps are shared by both dispatch
// policies (pipeline.go), and all of a batch's propagation state lives on
// the tree's nodes and in tree-owned buffers:
//
//   - closure building (run, enlist): the seeded lowest-level nodes and
//     their ancestors are materialized, linked to their parents and given
//     readiness counts;
//   - input assembly (assemble, stage): a node's children's net outputs,
//     mapped into its local ids, in a per-batch arena;
//   - application and netting (applyNodeDelta): the node's engine or its
//     small-node recompute, then its own net output;
//   - completion (visit, complete): the node's parent counts it out;
//   - GC and the cost merge (run), once the root has completed.

// InsertEdges inserts a batch of edges, returning one error slot per item
// (nil on success; ErrBadEdge and ErrExists mirror InsertEdge, with a
// repeated in-batch edge failing from its second occurrence on). The
// surviving edges seed the lowest stored level (see run). With distinct
// weights the resulting forest is identical to per-edge insertion in any
// order (each node's MSF is unique given its local edge set). The returned
// slots are pooled tree scratch, valid until the tree's next batch;
// callers that keep them must copy them.
func (f *Forest) InsertEdges(items []batch.Edge) []error {
	errs := f.errSlots(len(items))
	f.seeds = f.seeds[:0]
	for i, it := range items {
		u, v := it.U, it.V
		if u == v || u < 0 || v < 0 || u >= f.n || v >= f.n {
			errs[i] = ErrBadEdge
			continue
		}
		k := key(u, v)
		if _, dup := f.edges[k]; dup {
			errs[i] = ErrExists
			continue
		}
		f.edges[k] = it.W
		f.seeds = append(f.seeds, batch.Edge{U: k[0], V: k[1], W: it.W})
	}
	f.run(true)
	return errs
}

// DeleteEdges deletes a batch of edges named by endpoint pairs, returning
// one error slot per item (nil on success, ErrMissing for absent edges and
// for repeated keys after their first occurrence). Replacement promotions
// discovered at any level propagate with the deletions that caused them.
// The returned slots are pooled as InsertEdges' are, valid until the
// tree's next batch.
func (f *Forest) DeleteEdges(keys [][2]int) []error {
	errs := f.errSlots(len(keys))
	f.seeds = f.seeds[:0]
	for i, kk := range keys {
		k := key(kk[0], kk[1])
		if _, ok := f.edges[k]; !ok {
			errs[i] = ErrMissing
			continue
		}
		delete(f.edges, k)
		f.seeds = append(f.seeds, batch.Edge{U: k[0], V: k[1]})
	}
	f.run(false)
	return errs
}

// errSlots returns n cleared error slots from the pooled scratch.
func (f *Forest) errSlots(n int) []error {
	f.errs = slices.Grow(f.errs[:0], n)[:n]
	clear(f.errs)
	return f.errs
}

// run drives the staged seeds (canonical endpoints, all added or all
// removed) to the root. A lowest-level node holds the graph edges between
// its two intervals, so a seed is itself the forest delta of the one-edge
// leaf that would sit below it, and each node takes its seeds in canonical
// key order, the order in which such leaves would drain into it, so no
// node's op sequence depends on the batch's input order. Closure nodes are
// materialized here, before any applies: a node that is not stored has an
// empty local graph, so every child's delta into it is a non-empty
// insertion and it never receives a delta that cancels. Once the root has
// completed, every closure node left empty is destroyed — after its parent
// assembled its output, so no delta is lost with its node — and the cost
// merges: depth as the max over the batch's nodes (equivalently, the max
// over levels of each level's max over its concurrent siblings), work as
// the sum, both plus the O(log n) coordination of Section 5.3, two per
// stored level.
func (f *Forest) run(added bool) {
	seeds := f.seeds
	if len(seeds) == 0 {
		return
	}
	f.Fault.Hit(fpRunBatch)
	slices.SortFunc(seeds, cmpSeed)
	f.stamp++
	f.closure, f.dbuf, f.ibuf = f.closure[:0], f.dbuf[:0], f.ibuf[:0]
	for i, e := range seeds {
		nd := f.enlist(f.keyAt(f.levels, e.U, e.V))
		if added {
			f.stage(nd, nil, seeds[i:i+1])
		} else {
			f.stage(nd, seeds[i:i+1], nil)
		}
	}
	// Every closure node is queued once, as is the nil that ends the batch,
	// so sends never block.
	if cap(f.notify) <= len(f.closure) {
		f.notify = make(chan *node, len(f.closure)+1)
	}
	for _, nd := range f.closure {
		if int(nd.key.level) == f.levels {
			f.notify <- nd
		}
	}
	if f.Pipeline {
		f.pipeline()
	} else {
		f.sweep()
	}
	// A bulk batch, of more seeds than vertices (a Build's load), leaves its
	// scratch and the buffers it grew on the nodes to the collector, so that
	// steady-state churn does not keep them alive.
	bulk := len(seeds) > f.n
	var depth, work int64
	for _, nd := range f.closure {
		depth, work = max(depth, nd.depth), work+nd.work
		if len(nd.dels) > 0 || len(nd.ins) > 0 {
			f.BatchNodeOps++
		}
		nd.dels, nd.ins = nil, nil // so no node keeps an outgrown arena alive
		if bulk {
			nd.out = nil
			if nd.co != nil {
				*nd.co = coalescer{}
			}
		}
		if nd.m == 0 && nd.key.level != 0 {
			delete(f.nodes, nd.key)
		}
	}
	clear(f.closure)
	if bulk {
		f.seeds, f.errs, f.closure, f.dbuf, f.ibuf, f.notify = nil, nil, nil, nil, nil, nil
	}
	f.ParDepth += depth + 2*int64(f.levels+1)
	f.ParWork += work + 2*int64(f.levels+1)
	if t := f.trap.Swap(nil); t != nil {
		// Re-throw the batch's first node-task panic on the caller, with the
		// batch drained and the workers quiescent: the API layer's poisoning
		// recover takes it from here.
		panic(t.val)
	}
	f.applied()
}

// enlist adds the node at k and its ancestors to the batch's closure (each
// once), resetting their batch state and counting each newly enlisted node
// into its parent's readiness.
func (f *Forest) enlist(k nodeKey) *node {
	nd := f.getOrCreateKey(k)
	if nd.stamp != f.stamp {
		nd.batchState = batchState{stamp: f.stamp, out: nd.out[:0]}
		nd.waiting.Store(0)
		f.closure = append(f.closure, nd)
		if k.level > 0 {
			nd.parent = f.enlist(parentKey(k))
			nd.parent.waiting.Add(1)
		}
	}
	return nd
}

// assemble stages a ready node's input above the lowest level — its
// closure children's net forest removals, then their net additions, each
// concatenated in sibling order — and reports whether the node has
// anything to apply. Sibling local graphs are disjoint, so this is exactly
// the first-touch-ordered net of the children's deltas taken together. It
// runs on the batch goroutine, after every child has completed.
func (f *Forest) assemble(nd *node) bool {
	if int(nd.key.level) < f.levels {
		cks, nc := childKeys(nd.key)
		for _, ck := range cks[:nc] {
			if c := f.nodes[ck]; c != nil && c.stamp == f.stamp {
				f.stage(nd, c.out[:c.ndel], c.out[c.ndel:])
			}
		}
	}
	return len(nd.dels) > 0 || len(nd.ins) > 0
}

// stage appends a delta in original ids to nd's input in its local ids.
// A node's input is staged in one run on the tree's arena, so its slices
// are the arena's tails of their grown lengths.
func (f *Forest) stage(nd *node, dels, ins []batch.Edge) {
	for _, e := range dels {
		f.dbuf = append(f.dbuf, [2]int{nd.local(e.U), nd.local(e.V)})
	}
	for _, e := range ins {
		f.ibuf = append(f.ibuf, batch.Edge{U: nd.local(e.U), V: nd.local(e.V), W: e.W})
	}
	nd.dels = f.dbuf[len(f.dbuf)-len(nd.dels)-len(dels):]
	nd.ins = f.ibuf[len(f.ibuf)-len(nd.ins)-len(ins):]
}

// visit is a node's task: apply its input, then complete it. A panic is
// trapped at the task boundary so that the completion still releases the
// parent (a parent waiting on a dead child would stall the batch); the
// batch runs to its normal end, descendant inconsistencies from the
// half-applied node landing in the same trap, and run re-throws the first.
func (f *Forest) visit(nd *node) {
	defer f.complete(nd)
	defer func() {
		if r := recover(); r != nil {
			f.trap.CompareAndSwap(nil, &trappedPanic{val: r})
		}
	}()
	nd.depth, nd.work = f.applyNodeDelta(nd)
}

// complete counts nd out of its parent's readiness: the completion that
// releases the parent queues it, and the root's completion queues nil,
// which ends the batch. It touches only nd's parent's counter and the
// queue, so it runs on whichever goroutine ran the node.
func (f *Forest) complete(nd *node) {
	if p := nd.parent; p == nil || p.waiting.Add(-1) == 0 {
		f.notify <- p
	}
}

// applyNodeDelta applies a node's input — deletions first, then insertions,
// both in local ids — leaves its net forest delta in out, and returns the
// visit's charge: an engine node's depth and work deltas read through
// DepthFn and WorkFn, or a small node's recompute charge (applySmall), each
// 0 when its function is unset. It touches only nd's state plus the tree's
// atomic load counter. An insert-only delta into an empty engine node
// (every such node of a fresh tree during a bulk build, and any node
// recreated after its local graph emptied) takes the engine's static Load
// with no machine: the classification goes uncharged, as the node's cost
// is its engine's. Load's tie-break matches the incremental path exactly:
// local() is increasing on each of the node's intervals and interval a
// precedes interval b, so the (w, lu, lv) order equals the (w, u, v) order
// of the global canonical keys under which sorted per-edge replay resolves
// equal-weight conflicts (first arrival wins, and sorted arrival never
// swaps).
func (f *Forest) applyNodeDelta(nd *node) (depth, work int64) {
	f.Fault.Hit(fpNodeTask)
	if nd.eng == nil {
		depth, work = f.applySmall(nd)
		if f.DepthFn == nil {
			depth = 0
		}
		if f.WorkFn == nil {
			work = 0
		}
		return depth, work
	}
	if f.DepthFn != nil {
		depth = -f.DepthFn(nd.eng)
	}
	if f.WorkFn != nil {
		work = -f.WorkFn(nd.eng)
	}
	if len(nd.dels) > 0 {
		for i, err := range nd.eng.DeleteEdges(nd.dels) {
			if err != nil {
				nd.fail("delete", nd.dels[i], err)
			}
		}
		nd.m -= len(nd.dels)
	}
	if len(nd.ins) > 0 {
		var errs []error
		if len(nd.dels) == 0 && nd.m == 0 {
			errs = nd.eng.Load(nd.ins, nil)
			f.BulkNodeLoads.Add(1)
		} else {
			errs = nd.eng.InsertEdges(nd.ins)
		}
		for i, err := range errs {
			if err != nil {
				nd.fail("insert", [2]int{nd.ins[i].U, nd.ins[i].V}, err)
			}
		}
		nd.m += len(nd.ins)
	}
	if nd.co != nil {
		nd.co.net(nd)
	}
	if f.DepthFn != nil {
		depth += f.DepthFn(nd.eng)
	}
	if f.WorkFn != nil {
		work += f.WorkFn(nd.eng)
	}
	return depth, work
}

// fail panics on a local op the node's state contradicts, naming the edge
// in original ids.
func (nd *node) fail(op string, lk [2]int, err error) {
	panic(fmt.Sprintf("sparsify: local batch %s (%d,%d): %v", op, nd.global(lk[0]), nd.global(lk[1]), err))
}

// applySmall applies a small node's input to its edge slice and recomputes
// the slice's MSF with the static kernel, leaving the forest difference in
// out: removals, then additions, each ascending by (w, u, v). Local ids
// rise with global ids, so the kernel's (w, lu, lv) order is that
// canonical order, and the forest is the node's Kruskal forest whatever
// order its edges arrived in. It returns what the kernel charges on a
// sequential machine — its sort plus its sweep — as the visit's depth and
// work.
func (f *Forest) applySmall(nd *node) (depth, work int64) {
	s := &nd.sm
	out := nd.out[:0]
	for _, k := range nd.dels {
		i := slices.IndexFunc(s.items, func(it batch.Item) bool { return it.A == k[0] && it.B == k[1] })
		if i < 0 {
			nd.fail("delete", k, ErrMissing)
		}
		if it := s.items[i]; it.Idx == 1 {
			out = append(out, nd.edge(it))
		}
		last := len(s.items) - 1
		s.items[i] = s.items[last]
		s.items = s.items[:last]
	}
	for _, e := range nd.ins {
		s.items = append(s.items, batch.Item{Key: e.W, A: e.U, B: e.V})
	}
	nd.m = len(s.items)
	var m pram.Machine
	forest := s.k.Classify(&m, nd.localN(), s.items, nil)
	for i := len(forest); i < len(s.items); i++ {
		if it := &s.items[i]; it.Idx == 1 {
			it.Idx = 0
			out = append(out, nd.edge(*it))
		}
	}
	slices.SortFunc(out, cmpEdge)
	nd.ndel = len(out)
	for i := range forest {
		if it := &forest[i]; it.Idx == 0 {
			it.Idx = 1
			out = append(out, nd.edge(*it))
		}
	}
	nd.out = out
	return m.Time, m.Work
}

// edge returns a small node's local item as an edge in original ids.
func (nd *node) edge(it batch.Item) batch.Edge {
	return batch.Edge{U: nd.global(it.A), V: nd.global(it.B), W: it.Key}
}

// cmpEdge orders edges by (w, u, v).
func cmpEdge(x, y batch.Edge) int {
	return cmp.Or(cmp.Compare(x.W, y.W), cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V))
}

// cmpSeed orders canonical seeds by their lowest-level node (u/2, v/2),
// then by (u, v): each node's seeds are contiguous, in canonical key order.
func cmpSeed(x, y batch.Edge) int {
	return cmp.Or(cmp.Compare(x.U>>1, y.U>>1), cmp.Compare(x.V>>1, y.V>>1),
		cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V))
}

// parentKey returns the key of a node's unique parent. Every forest change
// a node makes has both endpoints inside the node's intervals, so its
// whole delta routes to this one node.
func parentKey(k nodeKey) nodeKey {
	return nodeKey{k.level - 1, k.a / 2, k.b / 2}
}

// coalescer nets an engine node's forest-change events of one visit: each
// touched edge in first-touch order, found through index, with whether its
// first and its last event added it. The first pins the edge's membership
// before the visit and the last after it; an edge's weight cannot change
// within a batch, so add→remove and remove→add histories cancel exactly.
// An engine node below the root keeps its coalescer across visits.
type coalescer struct {
	touched []touch
	index   map[[2]int]int32
}

type touch struct {
	e           batch.Edge
	first, last bool
}

func (c *coalescer) add(u, v int, w int64, added bool) {
	k := key(u, v)
	if i, ok := c.index[k]; ok {
		c.touched[i].last = added
		return
	}
	if c.index == nil {
		c.index = make(map[[2]int]int32)
	}
	c.index[k] = int32(len(c.touched))
	c.touched = append(c.touched, touch{batch.Edge{U: k[0], V: k[1], W: w}, added, added})
}

// net leaves the visit's net delta in nd.out — the edges it removed from
// the forest, then those it added, each in first-touch order — and resets
// the coalescer for the next visit.
func (c *coalescer) net(nd *node) {
	out := nd.out[:0]
	for _, t := range c.touched {
		if !t.first && !t.last {
			out = append(out, t.e)
		}
	}
	nd.ndel = len(out)
	for _, t := range c.touched {
		if t.first && t.last {
			out = append(out, t.e)
		}
	}
	nd.out = out
	c.touched = c.touched[:0]
	clear(c.index)
}
