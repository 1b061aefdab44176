package ternary

import (
	"fmt"

	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
)

// Load seeds an empty wrapper with a whole edge set — the static load of
// Build and Recover's flat path and of every fresh sparsification-tree
// node. The static MSF kernel (batch.MSF, charged on m; a nil m runs it
// inline and uncharged) classifies the items that pass the per-edge
// checks; the forest edges are staged in ascending order, then the rest in
// input order — the non-tree fast path is order-independent, so no sort is
// spent on the heavy majority — and the engine's BulkLoad builds the
// structure state from the flagged set, as with BulkLoad.
//
// Returns one error slot per item, at the item's input index: nil on
// success, else the error InsertEdges would report. A key repeated within
// items loads once, as its forest occurrence when it has one; the others
// fail with ErrExists. Capacity runs out along the staging order, so the
// items that do load keep their classification: a prefix of the forest
// edges, or all of them and part of the rest.
func (w *Wrapper) Load(items []BatchEdge, m *pram.Machine) []error {
	if len(w.edges) != 0 {
		panic("ternary: Load requires an empty wrapper")
	}
	errs := make([]error, len(items))
	// A wrapper is loaded once, so the classification arrays are not pooled.
	cand := make([]batch.Item, 0, len(items))
	for i, it := range items {
		if errs[i] = w.check(it.U, it.V, it.W); errs[i] == nil {
			cand = append(cand, batch.Item{Key: it.W, A: it.U, B: it.V, Idx: i})
		}
	}
	isTree := make([]bool, len(items))
	var k batch.MSF
	for _, it := range k.Classify(m, w.n, cand, isTree) {
		errs[it.Idx] = w.stageLoaded(items[it.Idx], true)
	}
	for i, it := range items {
		if errs[i] == nil && !isTree[i] {
			errs[i] = w.stageLoaded(it, false)
		}
	}
	w.flushLoad()
	return errs
}

// BulkLoad seeds an empty wrapper with its whole initial edge set in one
// engine batch, for a caller that classified the set itself (the module's
// own loads go through Load; perfbench's composed stack calls BulkLoad).
// tree[i] must report whether items[i] belongs to the minimum spanning
// forest of the item set, as a static MSF kernel classified it.
// The wrapper's slot rings are staged in item order without intermediate
// surgeries and flagged tree unconditionally — ring paths are cycle-free
// and lighter than every real edge, so every ring belongs to the gadget MSF
// and the flags over the staged gadget ops mark exactly the gadget graph's
// MSF.
//
// Returns one error slot per item (nil on success, else the error
// InsertEdge would have returned); a failed item stages nothing. The
// engine's BulkLoad builds the final structure state directly from the
// flagged gadget ops.
func (w *Wrapper) BulkLoad(items []BatchEdge, tree []bool) []error {
	if len(items) != len(tree) {
		panic("ternary: BulkLoad items/tree length mismatch")
	}
	if len(w.edges) != 0 {
		panic("ternary: BulkLoad requires an empty wrapper")
	}
	errs := make([]error, len(items))
	for i, it := range items {
		errs[i] = w.stageLoaded(it, tree[i])
	}
	w.flushLoad()
	return errs
}

// stageLoaded stages one item of a load with its MSF flag: its ring edges
// (always tree) and then its real edge go to the pooled op and flag
// buffers.
func (w *Wrapper) stageLoaded(it BatchEdge, tree bool) error {
	hs, err := w.stageInsert(it.U, it.V, it.W, &w.opsScratch)
	if err != nil {
		return err
	}
	for len(w.flagScratch) < len(w.opsScratch) {
		w.flagScratch = append(w.flagScratch, true) // staged ring edges are always tree
	}
	w.opsScratch = append(w.opsScratch, core.BatchOp{U: int(hs[0]), V: int(hs[1]), W: it.W})
	w.flagScratch = append(w.flagScratch, tree)
	return nil
}

// flushLoad hands the staged load to the engine's bulk loader.
func (w *Wrapper) flushLoad() {
	ops, flags := w.opsScratch, w.flagScratch
	if len(ops) > 0 {
		for _, err := range w.eng.BulkLoad(ops, flags) {
			if err != nil {
				panic(fmt.Sprintf("ternary: gadget bulk load failed: %v", err))
			}
		}
	}
	w.opsScratch, w.flagScratch = ops[:0], flags[:0]
	w.assertRings()
	if len(ops) > 0 {
		w.applied()
	}
}
