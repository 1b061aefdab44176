package sparsify

import "parmsf/internal/pram"

// This file holds the batch path's two dispatch policies. Both take ready
// nodes from the tree's queue (Forest.notify): run queues the seeded
// lowest-level nodes, and a node's completion queues its parent once the
// parent's last closure child has completed, then the root's queues nil.
// Both assemble a ready node's input on the batch goroutine and run its
// task through the same visit; they differ only in when a task starts.
//
//   - pipeline (Pipeline set, the one parmsf runs) starts each node as
//     soon as it is ready, so a fast subtree's parent applies while a slow
//     sibling subtree still works a lower level — the overlap Section
//     5.3's depth accounting permits, since only the child-before-parent
//     order is semantically required. It spawns a task only while another
//     ready node is queued; a lone ready node, as on every root path's
//     tail, runs on the batch goroutine itself.
//   - sweep (Pipeline false) holds every round of ready nodes — the
//     levels, from the lowest up — for its slowest member, running the
//     round through Exec.
//
// Determinism rests on sibling disjointness, not on completion order: the
// children of a node hold disjoint local graphs, so the concatenation in
// sibling order of their net deltas (assemble) is exactly the coalesced
// delta of all of them, and a node's op sequence is fixed whichever child
// finished first. Per-node depth and work come from the node's private
// engine simulator or its small-node recompute and merge commutatively
// (max and sum), so ParDepth and ParWork are identical for every policy,
// worker count and completion order.

// trappedPanic boxes the first panic value a node task recovered, for the
// batch's caller to re-throw once the batch has drained.
type trappedPanic struct{ val any }

// pipeline dispatches each node as soon as it is ready.
func (f *Forest) pipeline() {
	for nd := <-f.notify; nd != nil; nd = <-f.notify {
		switch {
		case !f.assemble(nd):
			f.complete(nd)
		case f.Spawn != nil && len(f.notify) > 0:
			if nd.task == nil {
				nd.task = func() { f.visit(nd) }
			}
			f.Spawn(nd.task)
		default:
			f.visit(nd)
		}
	}
}

// sweep dispatches rounds of ready nodes through Exec, each round's tasks
// completing before the next round is collected.
func (f *Forest) sweep() {
	for {
		f.round = f.round[:0]
		for len(f.notify) > 0 {
			nd := <-f.notify
			switch {
			case nd == nil:
				return
			case f.assemble(nd):
				f.round = append(f.round, nd)
			default:
				f.complete(nd)
			}
		}
		if f.Exec == nil {
			for _, nd := range f.round {
				f.visit(nd)
			}
		} else {
			f.Exec(len(f.round), f.visitRound)
		}
	}
}

// TaskPool is the pram pool, for composers that spawn node tasks on a pool
// of their own instead of a machine's (Machine.Spawn).
type TaskPool = pram.Pool

// NewTaskPool starts a pool of workers goroutines; install its Spawn as
// Forest.Spawn and Close it when done.
func NewTaskPool(workers int) *TaskPool { return pram.NewPool(workers) }
