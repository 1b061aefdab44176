package ternary

import (
	"fmt"

	"parmsf/internal/core"
)

// BulkLoad seeds an empty wrapper with its whole initial edge set in one
// engine batch. tree[i] must report whether items[i] belongs to the minimum
// spanning forest of the item set, as the caller's static MSF kernel
// (batch.MSF) classified it — in Build and Recover's flat load, and in
// each node of a fresh sparsification tree. The wrapper's slot rings
// are staged in item order without intermediate surgeries and flagged tree
// unconditionally — ring paths are cycle-free and lighter than every real
// edge, so every ring belongs to the gadget MSF and the flags over the
// staged gadget ops mark exactly the gadget graph's MSF.
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
	ops := w.opsScratch[:0]
	flags := w.flagScratch[:0]
	for i, it := range items {
		rec, err := w.stageInsert(it.U, it.V, it.W, &ops)
		if err != nil {
			errs[i] = err
			continue
		}
		for len(flags) < len(ops) {
			flags = append(flags, true) // staged ring edges are always tree
		}
		ops = append(ops, core.BatchOp{U: int(rec.su), V: int(rec.sv), W: it.W})
		flags = append(flags, tree[i])
	}
	if len(ops) > 0 {
		for _, err := range w.eng.BulkLoad(ops, flags) {
			if err != nil {
				panic(fmt.Sprintf("ternary: gadget bulk load failed: %v", err))
			}
		}
	}
	applied := len(ops) > 0
	w.opsScratch = ops[:0]
	w.flagScratch = flags[:0]
	w.assertRings()
	if applied {
		w.applied()
	}
	return errs
}
