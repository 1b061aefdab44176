package sparsify

import (
	"sort"
	"sync"
	"sync/atomic"

	"parmsf/internal/batch"
)

// This file implements the pipelined batch scheduler of the sparsification
// tree: instead of sweeping the tree strictly level-by-level with a global
// barrier per level (batch.go), a tree node becomes runnable as soon as all
// of its own children have drained their REdges deltas and pending events
// into it. Readiness is a per-node counter over the dependency closure (the
// ancestors of the batch's touched leaves), so a fast subtree's parent can
// apply while a slow sibling subtree is still working a lower level — the
// overlap Section 5.3's depth accounting permits, since only the
// child-before-parent order is semantically required.
//
// Completion bookkeeping is sharded off the scheduler goroutine: the
// goroutine that applies a node also drains that node's forest-delta
// events (it owns the node's engine until the parent consumes the drain)
// and decrements the parent's atomic readiness counter, and only the
// decrement that releases the parent sends a notification — one message
// per *released parent* rather than one per completed child, so the
// scheduler's serial section is O(nodes whose turn arrived), not O(node
// completions). The scheduler keeps for itself exactly the state that is
// inherently shared: assembling a parent's input group, the f.nodes map
// (materialize/GC), the node-op counters and the batch cost merge.
//
// Determinism is preserved regardless of completion order:
//
//   - A node's input delta is assembled by merging its children's drained
//     events in fixed sibling order (childKeys order, which is sorted), so
//     the coalesced group — and therefore the node's engine op order — is
//     exactly what the level-barrier sweep produces.
//   - Per-node depth/work deltas come from the node's private engine
//     simulator, which only the node's own task touches; the batch
//     aggregate merges them commutatively (max for depth, sum for work),
//     so ParDepth/ParWork are identical to the barrier path for every
//     worker count and every completion order.

// trappedPanic boxes the first panic value a node task recovered, for the
// batch's caller to re-throw once the schedule has drained.
type trappedPanic struct{ val any }

// pnode is one node of a batch's dependency closure.
type pnode struct {
	key      nodeKey
	group    *group       // leaf seed group (nil for internal nodes)
	parent   *pnode       // nil at the root
	children []*pnode     // closure children in sorted sibling order
	waiting  atomic.Int32 // children that have not yet completed
	nd       *node        // materialized tree node (nil when the delta cancelled)
	out      []event      // forest-delta events drained at completion
	depthD   int64        // this node's engine depth delta
	workD    int64        // this node's engine work delta
	finished bool         // set (pre-notification) once the node completed
}

// runBatchPipelined drives one batch through the dependency-driven
// scheduler. Node applications run through f.Spawn when set (concurrently,
// bounded by the spawner); with Spawn nil every task runs inline, which
// executes the identical schedule sequentially.
func (f *Forest) runBatchPipelined(fr frontier) {
	// Build the closure: every touched leaf and all of its ancestors. The
	// recursion always reaches level 0, so the closure has exactly one
	// root (parent == nil).
	nodes := make(map[nodeKey]*pnode, 2*len(fr))
	var all []*pnode
	var get func(k nodeKey) *pnode
	get = func(k nodeKey) *pnode {
		if p, ok := nodes[k]; ok {
			return p
		}
		p := &pnode{key: k}
		nodes[k] = p
		all = append(all, p)
		if k.level > 0 {
			p.parent = get(parentKey(k))
		}
		return p
	}
	for k, g := range fr {
		get(k).group = g
	}
	for _, p := range all {
		if int(p.key.level) < f.levels {
			for _, ck := range childKeys(p.key) {
				if c, ok := nodes[ck]; ok {
					p.children = append(p.children, c)
				}
			}
			p.waiting.Store(int32(len(p.children)))
		}
	}

	// Seed the ready queue with the leaves in sorted key order (the same
	// deterministic order the barrier sweep uses within a level).
	ready := make([]*pnode, 0, len(fr))
	for _, p := range all {
		if p.waiting.Load() == 0 {
			ready = append(ready, p)
		}
	}
	sortNodeKeysOf(ready)

	// Every node sends at most one notification (a released parent, or the
	// completed root), so the buffer bounds every send as non-blocking.
	notify := make(chan *pnode, len(all))

	// complete finishes node p on whichever goroutine ran it: drain its
	// forest-delta events (the drain must precede the parent's assembly,
	// and may race with nothing — p's engine is quiescent and the parent
	// cannot start until the release below), then decrement the parent's
	// readiness. The child whose decrement hits zero notifies the
	// scheduler that the parent's turn arrived; the root, having no
	// parent, notifies its own completion, which ends the batch.
	complete := func(p *pnode) {
		if p.nd != nil {
			p.out = p.nd.drain()
		}
		p.finished = true
		if par := p.parent; par != nil {
			if par.waiting.Add(-1) == 0 {
				notify <- par
			}
		} else {
			notify <- p
		}
	}

	// trap captures the first panic a node task throws (on a worker via
	// Spawn or inline on the scheduler). The task's completion bookkeeping
	// must still run — complete releases the parent's readiness count, and
	// a parent waiting on a dead child would deadlock the scheduler — so
	// the panic is recovered at the task boundary, the batch runs to its
	// normal termination (descendant inconsistencies from the half-applied
	// node land in the same trap), and the first panic re-throws on the
	// caller once the schedule has fully drained.
	var trap atomic.Pointer[trappedPanic]
	runTask := func(p *pnode, dels [][2]int, inss []batch.Edge) {
		defer complete(p)
		defer func() {
			if r := recover(); r != nil {
				trap.CompareAndSwap(nil, &trappedPanic{val: r})
			}
		}()
		f.runNodeTask(p, dels, inss)
	}

	var depth, work int64
	// consume merges a completed child into the batch on the scheduler:
	// cost deltas (commutative max/sum) and the deferred node GC (the
	// f.nodes map is scheduler-owned; the child was drained by its own
	// task strictly before the release that made its parent — or the
	// batch-end path — reach this point).
	consume := func(c *pnode) {
		if c.depthD > depth {
			depth = c.depthD
		}
		work += c.workD
		if c.nd != nil {
			f.gc(c.nd)
		}
	}

	rootDone := false
	for !rootDone {
		// Sweep every pending completion notification into the ready
		// queue without blocking, so concurrently released parents
		// accumulate and overlap (spawning happens only while a second
		// runnable node exists — a ready queue fed one node at a time
		// would serialize every internal level).
	sweep:
		for {
			select {
			case q := <-notify:
				if q.finished {
					// The root completed (possibly on a worker): merge its
					// cost and the batch is done. The root is released only
					// after every other node completed, so nothing runnable
					// is abandoned.
					consume(q)
					rootDone = true
					break sweep
				}
				ready = append(ready, q)
			default:
				break sweep
			}
		}
		if rootDone {
			break
		}
		var p *pnode
		if len(ready) > 0 {
			p = ready[0]
			ready = ready[1:]
		} else {
			q := <-notify
			if q.finished {
				consume(q)
				break
			}
			// A released parent; loop back through the sweep in case more
			// completions landed right behind it.
			ready = append(ready, q)
			continue
		}

		// Assemble the node's input: its leaf seed, plus its children's
		// drained events in sibling order. The children all completed (the
		// release that scheduled p happens-after every child's drain), so
		// their costs merge and their emptied nodes retire here.
		g := p.group
		if g == nil {
			g = &group{state: make(map[[2]int]*keyState)}
		}
		for _, c := range p.children {
			for _, ev := range c.out {
				g.add(ev.u, ev.v, ev.w, ev.added)
			}
			c.out = nil
			consume(c)
		}
		dels, inss := g.net()
		if len(dels) == 0 && len(inss) == 0 {
			// Fully cancelled: don't materialize the node. Completing it
			// inline may release the parent (or end the batch) through the
			// notification channel, which this loop drains.
			complete(p)
			continue
		}

		p.nd = f.getOrCreateKey(p.key)
		f.BatchNodeOps++
		if f.Spawn != nil && len(ready) > 0 {
			// More runnable nodes exist: overlap them. The scheduler only
			// spawns when there is something to run alongside, so a pure
			// chain (one runnable node at a time — every root path tail)
			// executes inline with no goroutine churn at all.
			f.Spawn(func() { runTask(p, dels, inss) })
		} else {
			// Dispatcher participation: the scheduler goroutine runs the
			// sole ready node itself instead of parking on the
			// notification channel.
			runTask(p, dels, inss)
		}
	}

	// Section 5.3: levels overlap; the sequential parts (pointer walks,
	// REdges scans, readiness bookkeeping) cost O(log n).
	f.ParDepth += depth + 2*int64(f.levels+1)
	f.ParWork += work + 2*int64(f.levels+1)
	if t := trap.Swap(nil); t != nil {
		// Re-throw the batch's first node-task panic on the caller, with
		// the schedule fully drained and the workers quiescent — the API
		// layer's poisoning recover takes it from here.
		panic(t.val)
	}
}

// runNodeTask applies one node's net delta and measures its private
// engine's depth/work deltas. It touches only p and p.nd, so closure nodes
// with disjoint engines run concurrently without synchronization.
func (f *Forest) runNodeTask(p *pnode, dels [][2]int, inss []batch.Edge) {
	var before, beforeW int64
	if f.DepthFn != nil {
		before = f.DepthFn(p.nd.eng)
	}
	if f.WorkFn != nil {
		beforeW = f.WorkFn(p.nd.eng)
	}
	f.applyNodeDelta(p.nd, dels, inss)
	if f.DepthFn != nil {
		p.depthD = f.DepthFn(p.nd.eng) - before
	}
	if f.WorkFn != nil {
		p.workD = f.WorkFn(p.nd.eng) - beforeW
	}
}

// TaskPool is a persistent-worker spawner for Forest.Spawn: `workers` run
// loops consume submitted node tasks from one channel, so a spawn costs a
// channel send instead of a goroutine creation. The channel buffer lets the
// scheduler stay ahead of the workers without blocking; a full buffer
// backpressures the scheduler, which is safe (tasks never depend on
// scheduler progress). Close releases the run loops; Spawn after Close
// panics, matching the composed Forest's lifecycle.
type TaskPool struct {
	ch   chan func()
	once sync.Once
}

// NewTaskPool starts workers persistent run loops.
func NewTaskPool(workers int) *TaskPool {
	if workers < 1 {
		workers = 1
	}
	tp := &TaskPool{ch: make(chan func(), 4*workers)}
	for i := 0; i < workers; i++ {
		go tp.loop()
	}
	return tp
}

func (tp *TaskPool) loop() {
	for run := range tp.ch {
		tp.exec(run)
	}
}

// exec runs one task, keeping the run loop alive if the task panics past
// its own containment (tasks from the pipeline scheduler trap their panics
// at the task boundary; this recover is the pool's own backstop — a dead
// run loop would strand queued tasks and hang the batch that spawned them).
func (tp *TaskPool) exec(run func()) {
	defer func() { recover() }()
	run()
}

// Spawn submits one task; install this as Forest.Spawn.
func (tp *TaskPool) Spawn(run func()) { tp.ch <- run }

// Close releases the run loops after queued tasks drain. Idempotent.
func (tp *TaskPool) Close() { tp.once.Do(func() { close(tp.ch) }) }

// sortNodeKeysOf sorts pnodes by (a, b); used only within one level, where
// that order matches the barrier sweep's sorted task order.
func sortNodeKeysOf(ps []*pnode) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].key.a != ps[j].key.a {
			return ps[i].key.a < ps[j].key.a
		}
		return ps[i].key.b < ps[j].key.b
	})
}
