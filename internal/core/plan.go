package core

import (
	"slices"

	"parmsf/internal/faultinject"
	"parmsf/internal/workload"
)

// fpApplyBatch is the core engine's crash point: it fires inside
// ApplyBatch, after the delete stages and before the insert stage, leaving
// the structure mid-batch with its deferred CAdj aggregate unflushed.
var fpApplyBatch = faultinject.Register("core/apply-batch")

// This file implements the staged batch-application pipeline of the update
// engine: classify -> shard -> apply. A batch of edge updates is first
// classified by a data-parallel kernel (one processor per item, read-only
// lookups), then partitioned into a plan — non-tree deletions, tree
// deletions, splices, insertions — and applied in plan order. Non-tree
// deletions form independent per-chunk-pair groups whose CAdj recomputation
// scans run concurrently on the worker pool; tree deletions run their
// replacement search through the parallel MWR; splices apply in batch order
// as O(1) surgeries with no search at all; insertions apply in batch order
// with their aggregate refreshes deferred to a single level-parallel flush
// (flush.go). It is the engine's only update path: the InsertEdge and
// DeleteEdge entry points of engine.go pass it one-element batches.

// BatchOp is one edge update in a batch: an insertion of (U, V) with weight
// W; when Del is set, a deletion of edge (U, V); when Splice is set, the
// splice of vertex H out of the forest path U–H–V, whose two edges (U, H)
// and (H, V) both weigh W: they become the forest edge (U, V) of weight W
// and H is left isolated (engine.go). A splice is the ternary gadget's slot
// compaction; it panics unless H is such a degree-2 forest vertex. H sits
// beside the flags as an int32 so a BatchOp stays 32 bytes.
type BatchOp struct {
	Del, Splice bool
	H           int32
	U, V        int
	W           Weight
}

// opClass is the planner's classification of a batch element against the
// pre-batch state.
type opClass uint8

const (
	opInsert opClass = iota
	opDelNonTree
	opDelTree
	opDelMissing
	opBadWeight
	opSplice
)

// Plan is the partition of a classified batch into application stages, in
// the order they apply. Deleting non-tree edges first is the batch delete
// ordering heuristic: a non-tree edge can never be promoted to a tree edge
// by another deletion's replacement search, so replacement searches never
// pick an edge the same batch is about to remove. Splices follow the
// deletions, which leave their middle vertices at degree 2; a splice may
// name an edge an earlier splice of the batch created. The stage slices
// live in pooled Store scratch, valid until the next planned batch.
type Plan struct {
	NonTreeDel []int // indices of deletions of live non-tree edges
	TreeDel    []int // indices of deletions of tree edges (surgery + MWR)
	Splices    []int // indices of splices, in batch order
	Inserts    []int // indices of insertions, in batch order
}

// classifyOp classifies one batch element against the current state:
// read-only lookups, one processor's work in the classify kernel. A splice
// is checked when it applies, because it may name an edge an earlier
// splice creates.
func (st *Store) classifyOp(op BatchOp) opClass {
	if op.Splice {
		return opSplice
	}
	if op.Del {
		switch id := st.g.Find(op.U, op.V); {
		case id < 0:
			return opDelMissing
		case st.isTree(id):
			return opDelTree
		default:
			return opDelNonTree
		}
	}
	if op.W == Inf {
		return opBadWeight
	}
	return opInsert
}

// planBatch runs the classify stage: a one-round kernel with one processor
// per item (read-only graph lookups, each writing its own class slot),
// followed by a host pass that resolves duplicate deletions (the first
// occurrence wins, as under sequential application), records the errors
// of inapplicable items and materializes both endpoints of every planned
// insertion, which the insert stage's root kernel then reads.
func (m *MSF) planBatch(ops []BatchOp, errs []error) Plan {
	st := m.st
	st.clsScratch = slices.Grow(st.clsScratch[:0], len(ops))[:len(ops)]
	cls := st.clsScratch
	dels := 0
	st.ch.ParDo(len(ops), st.classifyKernel)
	for _, op := range ops {
		if op.Del {
			dels++
		}
	}
	if dels > 1 {
		if st.delSeen == nil {
			st.delSeen = make(map[[2]int]bool, dels)
		}
		seen := st.delSeen
		clear(seen)
		for i, op := range ops {
			if !op.Del || cls[i] == opDelMissing {
				continue
			}
			k := [2]int{op.U, op.V}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			if seen[k] {
				cls[i] = opDelMissing
			} else {
				seen[k] = true
			}
		}
	}

	p := Plan{NonTreeDel: st.planNonTree[:0], TreeDel: st.planTree[:0],
		Splices: st.planSplice[:0], Inserts: st.planIns[:0]}
	for i := range ops {
		switch cls[i] {
		case opDelNonTree:
			p.NonTreeDel = append(p.NonTreeDel, i)
		case opDelTree:
			p.TreeDel = append(p.TreeDel, i)
		case opSplice:
			p.Splices = append(p.Splices, i)
		case opInsert:
			p.Inserts = append(p.Inserts, i)
			st.materialize(ops[i].U)
			st.materialize(ops[i].V)
		case opDelMissing:
			errs[i] = ErrNotFound
		case opBadWeight:
			errs[i] = ErrWeight
		}
	}
	// Return the (possibly regrown) stage slices to the pool so capacity
	// accumulates across batches.
	st.planNonTree, st.planTree, st.planSplice, st.planIns = p.NonTreeDel, p.TreeDel, p.Splices, p.Inserts
	return p
}

// ApplyBatch applies a batch of edge updates through the staged pipeline
// and returns one error slot per item (nil on success). Application order
// is the plan order — non-tree deletions, tree deletions, splices, then
// insertions, each stage in batch order — independent of the charger
// backend and of the worker count, so the resulting forest and the PRAM
// cost counters are identical for every execution configuration.
//
// The returned slice is pooled engine scratch: it is valid until the next
// batch enters this engine and must not be retained. Callers that need the
// errors later must copy them out.
func (m *MSF) ApplyBatch(ops []BatchOp) []error {
	st := m.st
	st.errScratch = slices.Grow(st.errScratch[:0], len(ops))[:len(ops)]
	errs := st.errScratch
	clear(errs)
	if len(ops) == 0 {
		return errs
	}
	st.batchOps = ops
	p := m.planBatch(ops, errs)
	m.applyNonTreeDeletes(p.NonTreeDel, ops)
	for _, i := range p.TreeDel {
		m.deleteTreeEdge(ops[i].U, ops[i].V)
	}
	for _, i := range p.Splices {
		m.splice(ops[i])
	}
	// Crash point between the delete and splice stages and the insert stage:
	// the worst mid-batch state recovery must cope with (deletions and
	// splices applied, CAdj aggregate unflushed, insertions never reached).
	m.fault.Hit(fpApplyBatch)
	if len(p.Inserts) > 0 {
		// Insert-side classification for the whole stage: one read-only
		// kernel round of tour-root walks plus a host union-find replay
		// (insertclass.go), leaving only path-max queries sequential.
		ic := m.planInsertConnectivity()
		for j, i := range p.Inserts {
			op := ops[i]
			conn := ic.connected(j)
			errs[i] = m.applyInsertPlanned(op.U, op.V, op.W, conn)
			if errs[i] == nil && !conn {
				ic.union(j)
			}
		}
	}
	st.flushCAdj()
	st.batchOps = nil // do not pin the caller's batch
	return errs
}

// LoadNontreeScenario populates m — a freshly created engine over n
// vertices — with the deterministic degree-3 workload of the E13 batch
// scenario and returns the two batches of independent non-tree updates:
// delete every non-tree edge, then reinsert it. Shared by the E13
// experiment table, which also feeds the BENCH_batch.json report, and the
// warm batch-apply allocation gate.
func LoadNontreeScenario(m *MSF, n int) (del, ins []BatchOp) {
	for _, e := range workload.DegreeBounded(n, n*5/4, 3, uint64(n)+13) {
		if err := m.InsertEdge(e.U, e.V, e.W); err != nil {
			panic(err)
		}
	}
	g := m.Graph()
	g.Edges(func(id int32) bool {
		if !m.st.isTree(id) {
			u, v := g.Ends(id)
			del = append(del, BatchOp{Del: true, U: int(u), V: int(v)})
			ins = append(ins, BatchOp{U: int(u), V: int(v), W: g.Weight(id)})
		}
		return true
	})
	return del, ins
}

// entryPair is one independent group of the shard stage: the symmetric CAdj
// entry pair (a, b) whose minimum must be recomputed after the group's
// deletions, and whether any of them can have changed it (entryMayChange).
// Distinct pairs write disjoint matrix cells, so all groups apply
// concurrently.
type entryPair struct {
	a, b *Chunk
	scan bool
}

// entryKey is the unordered id pair of the CAdj entry pair (a, b).
func entryKey(a, b *Chunk) [2]int32 {
	if a.id > b.id {
		a, b = b, a
	}
	return [2]int32{a.id, b.id}
}

// applyNonTreeDeletes applies the planned non-tree deletions as one sharded
// group. Phase 1 (host): graph deletions and chunk charge bookkeeping, in
// plan order. Phase 2 (shard/apply): deduplicate the touched chunk pairs
// and recompute each pair's CAdj entry by a charged-edge scan — one task
// per pair, fanned across the worker pool, each writing only its own
// symmetric entry pair. Every pair is charged its scan; a pair runs the
// kernel only if some deletion of its group can have changed the entry.
// Phase 3 (host): restore Invariant 1 for the touched chunks; the
// aggregate refreshes above them are deferred to the batch flush.
func (m *MSF) applyNonTreeDeletes(idx []int, ops []BatchOp) {
	if len(idx) == 0 {
		return
	}
	st := m.st
	pairs := st.pairScratch[:0]
	if st.pairSeen == nil {
		st.pairSeen = make(map[[2]int32]int, len(idx))
	}
	seen := st.pairSeen // empty between batches
	for _, i := range idx {
		op := ops[i]
		id, err := st.g.Delete(op.U, op.V)
		if err != nil {
			panic("core: planned non-tree deletion vanished: " + err.Error())
		}
		pu, pv := st.pcs[op.U], st.pcs[op.V]
		st.bumpCharge(pu, -1)
		if pv != pu {
			st.bumpCharge(pv, -1)
		}
		c1, c2 := pu.chunk, pv.chunk
		st.normQ = append(st.normQ, c1, c2)
		if c1.id < 0 || c2.id < 0 {
			continue // entries of unregistered chunks are not recorded
		}
		scan := st.entryMayChange(c1, c2, st.g.Weight(id))
		k := entryKey(c1, c2)
		if at, ok := seen[k]; ok {
			pairs[at].scan = pairs[at].scan || scan
		} else {
			seen[k] = len(pairs)
			pairs = append(pairs, entryPair{c1, c2, scan})
		}
	}
	// Empty the filter key by key, before normalize can renumber chunks:
	// clear costs the map's capacity, which the largest batch so far has
	// set, and the one-op batches behind single updates would pay it.
	for _, p := range pairs {
		delete(seen, entryKey(p.a, p.b))
	}

	// Model cost of the scans (Section 2.6 deletion, one per group), then
	// the uncharged kernels across the pool — the charge shape and scan
	// recomputeEntryPair uses for the other stages' entry pairs.
	for _, p := range pairs {
		st.chargeEntryPairScan(p.a)
		if p.scan {
			st.sts.EntryScans++
		}
	}
	st.pairScratch = pairs
	st.ch.Apply(len(pairs), st.scanKernel)
	for _, p := range pairs {
		st.markCAdjDirty(p.a)
		st.markCAdjDirty(p.b)
	}
	st.normalize()
	// Return the scratch with its pointers dropped, so retired chunks are
	// not pinned by pool capacity until the next batch.
	clear(pairs)
	st.pairScratch = pairs[:0]
}
