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
// batch of updates enters at the lowest stored level and propagates
// strictly level-by-level, the reference scheduler the pipeline
// (pipeline.go) is tested and measured against. At each level the pending
// updates and the accumulated forest deltas of the level below (the
// paper's REdges bookkeeping) are grouped by node and coalesced per edge,
// then every touched sibling node of the level applies its delta
// concurrently — the siblings own disjoint local state, so the only
// synchronization is the level barrier — and each node's emitted events
// are collected into its parent's pending group before the sweep advances.
// Nodes whose local graph empties are destroyed only after their events
// have been drained into the parent (teardown ordering), and per-batch
// cost is accounted as per-level max depth over the concurrent siblings
// plus the O(log n) coordination of Section 5.3.

// keyState tracks one edge's event history inside a node's pending group:
// the first event type pins the edge's membership before the batch, the
// last pins it after, and the pair determines the net operation (an edge's
// weight cannot change within one batch, so del→add and add→del histories
// cancel exactly).
type keyState struct {
	first, last bool // true = added
	w           int64
}

// group is the coalesced pending delta of one node at the current level:
// each touched edge's key and state, in first-touch order (deterministic),
// found through index.
type group struct {
	keys  [][2]int
	sts   []keyState
	index map[[2]int]int32
}

func (g *group) add(u, v int, w int64, added bool) {
	k := key(u, v)
	i, ok := g.index[k]
	if !ok {
		g.index[k] = int32(len(g.keys))
		g.keys = append(g.keys, k)
		g.sts = append(g.sts, keyState{first: added, last: added, w: w})
		return
	}
	st := &g.sts[i]
	st.last = added
	if added {
		st.w = w
	}
}

// net extracts the group's net delta: deletions and insertions over
// disjoint edge sets, in first-touch order. Deletions apply first — every
// net-deleted edge is present before the batch and every net-inserted edge
// absent, so the two stages never collide.
func (g *group) net() (dels [][2]int, inss []batch.Edge) {
	for i, k := range g.keys {
		st := g.sts[i]
		switch {
		case st.first && st.last:
			inss = append(inss, batch.Edge{U: k[0], V: k[1], W: st.w})
		case !st.first && !st.last:
			dels = append(dels, k)
		}
	}
	return dels, inss
}

// frontier is the set of touched nodes at one level, keyed by node.
type frontier map[nodeKey]*group

func (fr frontier) group(k nodeKey) *group {
	g, ok := fr[k]
	if !ok {
		g = &group{index: make(map[[2]int]int32)}
		fr[k] = g
	}
	return g
}

// cmpNodeKey orders the node keys of one level by (a, b): the order in
// which both schedulers start a level's siblings.
func cmpNodeKey(x, y nodeKey) int {
	return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
}

// parentKey returns the key of a node's unique parent. Every forest-change
// event a node emits has both endpoints inside the node's intervals, so the
// whole emitted delta routes to this one node.
func parentKey(k nodeKey) nodeKey {
	return nodeKey{k.level - 1, k.a / 2, k.b / 2}
}

// InsertEdges inserts a batch of edges, returning one error slot per item
// (nil on success; ErrBadEdge and ErrExists mirror InsertEdge, with a
// repeated in-batch edge failing from its second occurrence on). The
// surviving edges seed the lowest stored level (see run) and propagate
// level-by-level. With distinct weights the resulting forest is identical
// to per-edge insertion in any order (each node's MSF is unique given its
// local edge set).
func (f *Forest) InsertEdges(items []batch.Edge) []error {
	errs := make([]error, len(items))
	seeds := make([]batch.Edge, 0, len(items))
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
		seeds = append(seeds, batch.Edge{U: k[0], V: k[1], W: it.W})
	}
	f.run(seeds, true)
	return errs
}

// DeleteEdges deletes a batch of edges named by endpoint pairs, returning
// one error slot per item (nil on success, ErrMissing for absent edges and
// for repeated keys after their first occurrence). Replacement promotions
// discovered at any level ride the same level-by-level sweep as the
// deletions that caused them.
func (f *Forest) DeleteEdges(keys [][2]int) []error {
	errs := make([]error, len(keys))
	seeds := make([]batch.Edge, 0, len(keys))
	for i, kk := range keys {
		k := key(kk[0], kk[1])
		if _, ok := f.edges[k]; !ok {
			errs[i] = ErrMissing
			continue
		}
		delete(f.edges, k)
		seeds = append(seeds, batch.Edge{U: k[0], V: k[1]})
	}
	f.run(seeds, false)
	return errs
}

// run seeds the lowest stored level with a batch's staged edges (canonical
// endpoints, all added or all removed) and drives the batch to the root. A
// node there holds the graph edges between its two intervals, so a staged
// edge is itself the forest delta of the one-edge leaf that would sit
// below it. The edges enter the nodes' groups in canonical key order, the
// order in which such leaves would drain into their parent under either
// scheduler, so no node's op sequence depends on the batch's input order.
func (f *Forest) run(seeds []batch.Edge, added bool) {
	if len(seeds) == 0 {
		return
	}
	slices.SortFunc(seeds, func(x, y batch.Edge) int {
		return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V))
	})
	fr := make(frontier)
	for _, e := range seeds {
		fr.group(f.keyAt(f.levels, e.U, e.V)).add(e.U, e.V, e.W, added)
	}
	f.runBatch(fr)
	f.applied()
}

// runBatch drives one staged batch from the lowest stored level to the
// root: through the dependency-driven pipeline scheduler when Pipeline is
// set, else the strict level-by-level sweep below. Depth is accounted as
// the max over levels of each level's max over its concurrent siblings
// (equivalently, under either scheduler: the max over all touched nodes);
// work as the sum over every touched node; both plus the O(log n)
// coordination of Section 5.3, two per stored level.
func (f *Forest) runBatch(fr frontier) {
	f.Fault.Hit(fpRunBatch)
	if f.Pipeline {
		f.runBatchPipelined(fr)
		return
	}
	var depth, work int64
	for level := f.levels; level >= 0 && len(fr) > 0; level-- {
		next, d, w := f.runLevel(level, fr)
		fr = next
		if d > depth {
			depth = d
		}
		work += w
	}
	f.ParDepth += depth + 2*int64(f.levels+1)
	f.ParWork += work + 2*int64(f.levels+1)
}

// runLevel applies one level of the sweep: materialize the touched nodes in
// deterministic key order, apply their coalesced deltas concurrently on the
// executor, then — back on the host — drain each node's emitted events into
// its parent's group and destroy emptied nodes (drain strictly before
// destruction, so no delta is ever lost with its node).
func (f *Forest) runLevel(level int, fr frontier) (next frontier, depth, work int64) {
	keys := make([]nodeKey, 0, len(fr))
	for k := range fr {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpNodeKey)

	type task struct {
		nd          *node
		dels        [][2]int
		inss        []batch.Edge
		depth, work int64 // the node's charge, written by its own task
	}
	tasks := make([]task, 0, len(keys))
	for _, k := range keys {
		dels, inss := fr[k].net()
		if len(dels) == 0 && len(inss) == 0 {
			continue // fully cancelled: don't materialize the node
		}
		tasks = append(tasks, task{nd: f.getOrCreateKey(k), dels: dels, inss: inss})
	}
	if len(tasks) == 0 {
		return nil, 0, 0
	}
	f.BatchNodeOps += int64(len(tasks))

	exec := f.Exec
	if exec == nil {
		exec = func(n int, run func(t int)) {
			for t := 0; t < n; t++ {
				run(t)
			}
		}
	}
	exec(len(tasks), func(t int) {
		tk := &tasks[t]
		tk.depth, tk.work = f.applyNodeDelta(tk.nd, tk.dels, tk.inss)
	})

	next = make(frontier)
	for t := range tasks {
		nd := tasks[t].nd
		depth = max(depth, tasks[t].depth)
		work += tasks[t].work
		evs := nd.drain()
		if level > 0 {
			pg := next.group(parentKey(nd.key))
			for _, ev := range evs {
				pg.add(ev.u, ev.v, ev.w, ev.added)
			}
		}
		f.gc(nd)
	}
	return next, depth, work
}

// applyNodeDelta applies one node's net delta — deletions first, then
// insertions, both in first-touch order — and returns the visit's charge:
// an engine node's depth and work deltas read through DepthFn and WorkFn,
// or a small node's recompute charge (applySmall), each 0 when its
// function is unset. It runs concurrently with its siblings and touches
// only nd's state plus the tree's atomic load counter. An insert-only
// delta into an empty engine node (every such node of a fresh tree during
// a bulk build, and any node recreated after its local graph emptied)
// takes the engine's static Load with no machine: the classification goes
// uncharged, as the node's cost is its engine's. Load's tie-break matches
// the incremental path exactly: local() is increasing on each of the
// node's intervals and interval a precedes interval b, so the (w, lu, lv)
// order equals the (w, u, v) order of the global canonical keys under
// which sorted per-edge replay resolves equal-weight conflicts (first
// arrival wins, and sorted arrival never swaps).
func (f *Forest) applyNodeDelta(nd *node, dels [][2]int, inss []batch.Edge) (depth, work int64) {
	f.Fault.Hit(fpNodeTask)
	if nd.eng == nil {
		depth, work = f.applySmall(nd, dels, inss)
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
	if len(dels) > 0 {
		ldels := make([][2]int, len(dels))
		for i, k := range dels {
			ldels[i] = [2]int{nd.local(k[0]), nd.local(k[1])}
		}
		for i, err := range nd.eng.DeleteEdges(ldels) {
			if err != nil {
				panic(fmt.Sprintf("sparsify: local batch delete (%d,%d): %v", dels[i][0], dels[i][1], err))
			}
		}
		nd.m -= len(dels)
	}
	if len(inss) > 0 {
		lins := make([]batch.Edge, len(inss))
		for i, e := range inss {
			lins[i] = batch.Edge{U: nd.local(e.U), V: nd.local(e.V), W: e.W}
		}
		var errs []error
		if len(dels) == 0 && nd.m == 0 {
			errs = nd.eng.Load(lins, nil)
			f.BulkNodeLoads.Add(1)
		} else {
			errs = nd.eng.InsertEdges(lins)
		}
		for i, err := range errs {
			if err != nil {
				panic(fmt.Sprintf("sparsify: local batch insert (%d,%d): %v", inss[i].U, inss[i].V, err))
			}
		}
		nd.m += len(inss)
	}
	if f.DepthFn != nil {
		depth += f.DepthFn(nd.eng)
	}
	if f.WorkFn != nil {
		work += f.WorkFn(nd.eng)
	}
	return depth, work
}

// applySmall applies a small node's net delta to its edge slice and
// recomputes the slice's MSF with the static kernel, appending the forest
// difference to the node's pending events: removals, then additions, each
// ascending by (w, u, v). Local ids rise with global ids, so the kernel's
// (w, lu, lv) order is that canonical order, and the forest is the
// node's Kruskal forest whatever order its edges arrived in. It returns
// what the kernel charges on a sequential machine — its sort plus its
// sweep — as the visit's depth and work.
func (f *Forest) applySmall(nd *node, dels [][2]int, inss []batch.Edge) (depth, work int64) {
	s := &nd.sm
	mark := len(nd.pending)
	for _, k := range dels {
		lu, lv := nd.local(k[0]), nd.local(k[1])
		i := 0
		for i < len(s.items) && (s.items[i].A != lu || s.items[i].B != lv) {
			i++
		}
		if i == len(s.items) {
			panic(fmt.Sprintf("sparsify: local batch delete (%d,%d): %v", k[0], k[1], ErrMissing))
		}
		if it := s.items[i]; it.Idx == 1 {
			nd.pending = append(nd.pending, event{k[0], k[1], it.Key, false})
		}
		last := len(s.items) - 1
		s.items[i] = s.items[last]
		s.items = s.items[:last]
	}
	for _, e := range inss {
		s.items = append(s.items, batch.Item{Key: e.W, A: nd.local(e.U), B: nd.local(e.V)})
	}
	nd.m = len(s.items)
	var m pram.Machine
	forest := s.k.Classify(&m, nd.localN(), s.items, nil)
	for i := len(forest); i < len(s.items); i++ {
		if it := &s.items[i]; it.Idx == 1 {
			it.Idx = 0
			nd.pending = append(nd.pending, event{nd.global(it.A), nd.global(it.B), it.Key, false})
		}
	}
	slices.SortFunc(nd.pending[mark:], cmpEvent)
	for i := range forest {
		if it := &forest[i]; it.Idx == 0 {
			it.Idx = 1
			nd.pending = append(nd.pending, event{nd.global(it.A), nd.global(it.B), it.Key, true})
		}
	}
	return m.Time, m.Work
}

// cmpEvent orders events by (w, u, v).
func cmpEvent(x, y event) int {
	return cmp.Or(cmp.Compare(x.w, y.w), cmp.Compare(x.u, y.u), cmp.Compare(x.v, y.v))
}
