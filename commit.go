package parmsf

import (
	"errors"
	"math"
	"slices"

	"parmsf/internal/batch"
	"parmsf/internal/ingest"
	"parmsf/internal/sparsify"
	"parmsf/internal/ternary"
)

// This file is the write path. Every mutation — Insert and Delete as
// one-element batches, InsertEdges, DeleteEdges, and the runs the ingest
// drainer coalesces — reaches the engine through commit.

// Edge is a batch-insertion item for InsertEdges.
type Edge struct {
	U, V int
	W    Weight
}

// EdgeKey names an edge for batch deletion with DeleteEdges.
type EdgeKey struct {
	U, V int
}

// Insert adds edge (u, v) with weight w and updates the forest: a
// one-element InsertEdges. Self loops, out-of-range endpoints, weights
// below MinWeight and the weight math.MaxInt64 are rejected with
// ErrBadEdge.
func (f *Forest) Insert(u, v int, w Weight) error {
	one := [1]Edge{{U: u, V: v, W: w}} // commit copies it; nothing keeps it
	if errs := f.commit(one[:], nil); errs != nil {
		return errs[0]
	}
	return nil
}

// Delete removes edge (u, v) and updates the forest (finding a replacement
// when a forest edge is removed): a one-element DeleteEdges.
func (f *Forest) Delete(u, v int) error {
	one := [1]EdgeKey{{U: u, V: v}} // commit copies it; nothing keeps it
	if errs := f.commit(nil, one[:]); errs != nil {
		return errs[0]
	}
	return nil
}

// InsertEdges inserts a batch of edges. The batch runs through the staged
// pipeline on the forest's executor: a validation kernel classifies every
// item in one round, a parallel merge sort orders the survivors by
// ascending weight — so an edge can never displace a lighter batch-mate
// that was inserted after it, which avoids quadratic cycle-swap churn
// inside a batch — and the engine applies the sorted batch with its CAdj
// effect application sharded across the worker pool (one deduplicated,
// level-parallel aggregate flush per batch instead of one climb per edge).
// With Options.Sparsify the sorted batch instead enters the Section 5 tree
// at its lowest stored level and propagates toward the root (see
// Options.Sparsify for the scheduler). Application order is deterministic
// — (weight, endpoints, batch index) — so the resulting forest and the
// PRAM cost counters are independent of the worker count. A batch that
// changed the forest publishes one epoch.
//
// The result is nil when every edge was inserted; otherwise it has one
// entry per input edge, nil for successes and the same error Insert would
// have returned (ErrBadEdge, ErrExists, ErrCapacity) for failures.
func (f *Forest) InsertEdges(edges []Edge) []error { return f.commit(edges, nil) }

// DeleteEdges deletes a batch of edges, finding replacements as needed. The
// keys are canonicalized by a parallel kernel on the forest's executor; the
// engine's planner then classifies the batch — tree versus non-tree
// deletions — in one parallel round and deletes the non-tree edges first
// (as one group of concurrently recomputed chunk-pair entries), so no
// replacement search can ever pick an edge the same batch is about to
// remove. Tree-edge deletions follow, each running its replacement search
// through the parallel MWR. With Options.Sparsify the batch propagates
// through the Section 5 tree toward the root (see Options.Sparsify),
// replacement promotions riding the same pass as the deletions that caused
// them. A batch that changed the forest publishes one epoch.
//
// The result is nil when every edge was deleted; otherwise it has one entry
// per input key, nil for successes and the error Delete would have returned
// (ErrNotFound for absent or malformed keys) for failures.
func (f *Forest) DeleteEdges(keys []EdgeKey) []error { return f.commit(nil, keys) }

// validPair reports whether (u, v) can name an edge of a forest over n
// vertices: distinct endpoints in [0, n).
func validPair(n, u, v int) bool {
	return u >= 0 && u < n && v >= 0 && v < n && u != v
}

// validEdge reports whether e can be an edge of a forest over n vertices:
// a valid pair and MinWeight <= W < math.MaxInt64 (the core engine's
// infinity sentinel). The commit kernel and Build share it, so no engine
// layer ever sees an edge it would refuse mid-batch.
func validEdge(n int, e Edge) bool {
	return validPair(n, e.U, e.V) && e.W >= MinWeight && e.W < math.MaxInt64
}

// updateErr returns the error commit reports for a malformed update —
// ErrBadEdge for an insert, ErrNotFound for a delete — or nil for a
// well-formed one. Submit and SubmitBatch reject with it, so the ingest
// queue and its cancelling coalescer only ever hold well-formed updates.
func updateErr(n int, up Update) error {
	switch {
	case up.Delete && !validPair(n, up.U, up.V):
		return ErrNotFound
	case !up.Delete && !validEdge(n, Edge{U: up.U, V: up.V, W: up.W}):
		return ErrBadEdge
	}
	return nil
}

// commitScratch is commit's working set, pooled on the Forest under its
// mutator lock. Nothing in it outlives one commit: a result slice is copied
// out of errs. The two kernels are built once (New) and read the batch from
// here, so no commit allocates a closure and none keeps the caller's slice.
type commitScratch struct {
	errs     []error             // one result slot per input item
	out      []error             // the slots the running kernel writes: errs, or Build's own
	items    []batch.Item        // the insertions; the valid ones are compacted to the front, weight-sorted
	edges    []ternary.BatchEdge // the engine's insert batch
	keys     [][2]int            // the delete keys, canonicalized; the valid ones are compacted to the front
	idx      []int               // input slot of each compacted delete key
	validate func(i int)         // insertBatch's validation kernel
	canon    func(i int)         // deleteBatch's canonicalization kernel
}

// validateKernel checks insertion i: one processor per item, reading its
// own items cell and writing only its own result slot.
func (f *Forest) validateKernel(i int) {
	if it := f.sc.items[i]; !validEdge(f.n, Edge{U: it.A, V: it.B, W: it.Key}) {
		f.sc.out[i] = ErrBadEdge
	}
}

// canonKernel canonicalizes delete key i in place: one processor per key,
// writing only its own key and result slot. A key no edge can carry fails
// as absent without consulting the engine.
func (f *Forest) canonKernel(i int) {
	k := f.sc.keys[i]
	if !validPair(f.n, k[0], k[1]) {
		f.sc.out[i] = ErrNotFound
	}
	f.sc.keys[i] = jkey(k[0], k[1])
}

// commit is the one path from a mutator or the ingest drainer to the
// engine: it applies ins or, when ins is empty, del as one engine batch.
// The result is nil when every item succeeded, else one error per item.
// With Options.AutoRecover, a commit that reports the forest poisoned has
// rebuilt it before returning.
func (f *Forest) commit(ins []Edge, del []EdgeKey) []error {
	if len(ins)+len(del) == 0 {
		return nil
	}
	f.mu.Lock()
	errs := f.commitLocked(ins, del)
	f.mu.Unlock()
	if f.opt.AutoRecover && errs != nil && errors.Is(errs[0], ErrPoisoned) {
		_ = f.Recover()
	}
	return errs
}

// commitLocked is commit's body, run under the mutator lock. It fails fast
// on a poisoned forest, and turns any panic that escapes the engine stack —
// including worker-pool kernel and pipeline node-task panics, which the
// executors re-throw on this goroutine once their barriers resolve — into a
// poisoned forest whose PoisonError fills every result slot. Otherwise it
// runs the charged validation (insertions) or canonicalization (deletions)
// kernel, the weight sort, one engine batch and the live-edge journal
// write. The journal is written only after the engine batch returns, so a
// panicked batch leaves it at the pre-batch state: the failed batch is,
// observably, never applied.
func (f *Forest) commitLocked(ins []Edge, del []EdgeKey) (errs []error) {
	n := len(ins) + len(del)
	if pe := f.poison.Load(); pe != nil {
		return poisonErrs(n, pe)
	}
	defer func() {
		if r := recover(); r != nil {
			stage := "insert"
			if len(ins) == 0 {
				stage = "delete"
			}
			errs = poisonErrs(n, f.poisonWith(stage, r))
		}
	}()
	defer f.absorbSpars()()
	errs = slices.Grow(f.sc.errs[:0], n)[:n]
	f.sc.errs = errs
	clear(errs)
	if len(ins) > 0 {
		f.insertBatch(ins, errs)
	} else {
		f.deleteBatch(del, errs)
	}
	for _, err := range errs {
		if err != nil {
			return append([]error(nil), errs...)
		}
	}
	return nil
}

// insertBatch validates ins into errs, applies the valid edges as one
// weight-sorted engine batch, and journals the edges the engine accepted.
func (f *Forest) insertBatch(ins []Edge, errs []error) {
	all := slices.Grow(f.sc.items[:0], len(ins))[:len(ins)]
	for i, e := range ins {
		all[i] = batch.Item{Key: e.W, A: e.U, B: e.V, Idx: i}
	}
	f.sc.items, f.sc.out = all, errs
	// Validation kernel: one EREW round (validateKernel).
	f.ch.ParDo(len(all), f.sc.validate)
	f.sc.out = nil
	items := all[:0]
	for i, it := range all {
		if errs[i] == nil {
			items = append(items, it)
		}
	}
	batch.Sort(f.mach, items)
	bes := f.sc.edges[:0]
	for _, it := range items {
		bes = append(bes, ternary.BatchEdge{U: it.A, V: it.B, W: it.Key})
	}
	f.sc.edges = bes
	for i, err := range f.eng.InsertEdges(bes) {
		if it := items[i]; err != nil {
			errs[it.Idx] = mapBatchInsertErr(err)
		} else {
			f.jour[jkey(it.A, it.B)] = it.Key
		}
	}
}

// deleteBatch canonicalizes del into errs, deletes the remaining keys as
// one engine batch, and drops the edges the engine removed from the
// journal.
func (f *Forest) deleteBatch(del []EdgeKey, errs []error) {
	keys := slices.Grow(f.sc.keys[:0], len(del))[:len(del)]
	for i, k := range del {
		keys[i] = [2]int{k.U, k.V}
	}
	f.sc.keys, f.sc.out = keys, errs
	// Canonicalization kernel: one EREW round (canonKernel).
	f.ch.ParDo(len(del), f.sc.canon)
	f.sc.out = nil
	live, idx := keys[:0], f.sc.idx[:0]
	for i, k := range keys {
		if errs[i] == nil {
			live = append(live, k)
			idx = append(idx, i)
		}
	}
	f.sc.idx = idx
	for j, err := range f.eng.DeleteEdges(live) {
		if err != nil {
			errs[idx[j]] = ErrNotFound
		} else {
			delete(f.jour, live[j])
		}
	}
}

// mapBatchInsertErr translates an engine batch insert error (ternary
// wrapper or sparsification tree) to the public error.
func mapBatchInsertErr(err error) error {
	switch err {
	case ternary.ErrExists, sparsify.ErrExists:
		return ErrExists
	case ternary.ErrCapacity:
		return ErrCapacity
	}
	return ErrBadEdge
}

// jkey returns the canonical journal key of an edge.
func jkey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// poisonErrs fills a batch result with the poison error.
func poisonErrs(n int, pe *PoisonError) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = pe
	}
	return errs
}

// queueApplier is the ingest drainer's sink: it converts each coalesced run
// into a reused buffer (the drainer is a single goroutine) and commits it.
type queueApplier struct {
	f     *Forest
	edges []Edge
	keys  []EdgeKey
}

// ApplyInserts implements ingest.Applier.
func (a *queueApplier) ApplyInserts(ops []ingest.Op) []error {
	a.edges = a.edges[:0]
	for _, op := range ops {
		a.edges = append(a.edges, Edge{U: op.U, V: op.V, W: op.W})
	}
	return a.f.commit(a.edges, nil)
}

// ApplyDeletes implements ingest.Applier.
func (a *queueApplier) ApplyDeletes(ops []ingest.Op) []error {
	a.keys = a.keys[:0]
	for _, op := range ops {
		a.keys = append(a.keys, EdgeKey{U: op.U, V: op.V})
	}
	return a.f.commit(nil, a.keys)
}
