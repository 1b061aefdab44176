package sparsify

import (
	"fmt"
	"sort"

	"parmsf/internal/batch"
	"parmsf/internal/faultinject"
)

// Crash points of the sparsification tree (see Forest.Fault).
var (
	fpRunBatch = faultinject.Register("sparsify/run-batch")
	fpNodeTask = faultinject.Register("sparsify/node-task")
)

// This file implements the batch path of the sparsification tree: a whole
// batch of updates enters at its leaf nodes and propagates strictly
// level-by-level, the reference scheduler the pipeline (pipeline.go) is
// tested and measured against. At each level the pending updates and the
// accumulated forest deltas of the level below (the paper's REdges
// bookkeeping) are grouped by node and coalesced per edge, then every
// touched sibling node of the level applies its delta concurrently — the
// siblings own disjoint local engines, so the only synchronization is the
// level barrier — and each node's emitted events are collected into its
// parent's pending group before the sweep advances. Nodes whose local graph
// empties are destroyed only after their events have been drained into the
// parent (teardown ordering), and per-batch cost is accounted as per-level
// max depth over the concurrent siblings plus the O(log n) coordination of
// Section 5.3.

// keyState tracks one edge's event history inside a node's pending group:
// the first event type pins the edge's membership before the batch, the
// last pins it after, and the pair determines the net operation (an edge's
// weight cannot change within one batch, so del→add and add→del histories
// cancel exactly).
type keyState struct {
	first, last bool // true = added
	w           int64
}

// group is the coalesced pending delta of one node at the current level.
type group struct {
	keys  [][2]int // first-touch order (deterministic)
	state map[[2]int]*keyState
}

func (g *group) add(u, v int, w int64, added bool) {
	k := key(u, v)
	st, ok := g.state[k]
	if !ok {
		g.state[k] = &keyState{first: added, last: added, w: w}
		g.keys = append(g.keys, k)
		return
	}
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
	for _, k := range g.keys {
		st := g.state[k]
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
		g = &group{state: make(map[[2]int]*keyState)}
		fr[k] = g
	}
	return g
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
// surviving edges seed the leaf frontier and propagate level-by-level. With
// distinct weights the resulting forest is identical to per-edge insertion
// in any order (each node's MSF is unique given its local edge set).
func (f *Forest) InsertEdges(items []batch.Edge) []error {
	errs := make([]error, len(items))
	fr := make(frontier)
	staged := 0
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
		fr.group(f.keyAt(f.levels, u, v)).add(u, v, it.W, true)
		staged++
	}
	if staged > 0 {
		f.runBatch(fr)
		f.applied()
	}
	return errs
}

// DeleteEdges deletes a batch of edges named by endpoint pairs, returning
// one error slot per item (nil on success, ErrMissing for absent edges and
// for repeated keys after their first occurrence). Replacement promotions
// discovered at any level ride the same level-by-level sweep as the
// deletions that caused them.
func (f *Forest) DeleteEdges(keys [][2]int) []error {
	errs := make([]error, len(keys))
	fr := make(frontier)
	staged := 0
	for i, kk := range keys {
		k := key(kk[0], kk[1])
		if _, ok := f.edges[k]; !ok {
			errs[i] = ErrMissing
			continue
		}
		delete(f.edges, k)
		fr.group(f.keyAt(f.levels, k[0], k[1])).add(k[0], k[1], 0, false)
		staged++
	}
	if staged > 0 {
		f.runBatch(fr)
		f.applied()
	}
	return errs
}

// runBatch drives one staged batch from the leaves to the root: through
// the dependency-driven pipeline scheduler when Pipeline is set, else the
// strict level-by-level sweep below. Depth is accounted as the max over
// levels of each level's max over its concurrent siblings (equivalently,
// under either scheduler: the max over all touched nodes); work as the sum
// over every touched node; both plus the O(log n) coordination of Section
// 5.3.
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
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})

	type task struct {
		nd   *node
		dels [][2]int
		inss []batch.Edge
	}
	tasks := make([]task, 0, len(keys))
	for _, k := range keys {
		dels, inss := fr[k].net()
		if len(dels) == 0 && len(inss) == 0 {
			continue // fully cancelled: don't materialize the node
		}
		tasks = append(tasks, task{f.getOrCreateKey(k), dels, inss})
	}
	if len(tasks) == 0 {
		return nil, 0, 0
	}

	before := make([]int64, len(tasks))
	beforeW := make([]int64, len(tasks))
	for t := range tasks {
		if f.DepthFn != nil {
			before[t] = f.DepthFn(tasks[t].nd.eng)
		}
		if f.WorkFn != nil {
			beforeW[t] = f.WorkFn(tasks[t].nd.eng)
		}
		f.BatchNodeOps++
	}

	exec := f.Exec
	if exec == nil {
		exec = func(n int, run func(t int)) {
			for t := 0; t < n; t++ {
				run(t)
			}
		}
	}
	exec(len(tasks), func(t int) { f.applyNodeDelta(tasks[t].nd, tasks[t].dels, tasks[t].inss) })

	next = make(frontier)
	for t := range tasks {
		nd := tasks[t].nd
		if f.DepthFn != nil {
			if d := f.DepthFn(nd.eng) - before[t]; d > depth {
				depth = d
			}
		}
		if f.WorkFn != nil {
			work += f.WorkFn(nd.eng) - beforeW[t]
		}
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
// insertions, both in first-touch order — through the node's engine. It
// runs concurrently with its siblings and touches only nd's state plus the
// tree's atomic load counter. An insert-only delta into an empty node
// (every node of a fresh tree during a bulk build, and any node recreated
// after its local graph emptied) takes the engine's static Load with no
// machine: the classification goes uncharged, as the node's cost is its
// engine's. Load's tie-break matches the incremental path exactly: local()
// is increasing on each of the node's intervals and interval a precedes
// interval b, so the (w, lu, lv) order equals the (w, u, v) order of the
// global canonical keys under which sorted per-edge replay resolves
// equal-weight conflicts (first arrival wins, and sorted arrival never
// swaps).
func (f *Forest) applyNodeDelta(nd *node, dels [][2]int, inss []batch.Edge) {
	f.Fault.Hit(fpNodeTask)
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
}
