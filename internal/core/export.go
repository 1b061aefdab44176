package core

import "slices"

// This file implements the snapshot-export hook of the concurrent read
// plane: one sweep producing a flat component-id array for the engine's
// current forest, consumed by the epoch publisher after each applied batch.
// It reuses the insert-classification machinery of insertclass.go — the
// tour-root walk is the same read-only SameTour primitive, fanned out one
// processor per vertex across the executor — followed by the same
// host-side densification into dense ids (first-occurrence order, so the
// labeling is deterministic for every worker count). The sweep is
// uncharged maintenance: it reads structure state but models no paper
// primitive, so it must not perturb the PRAM depth/work counters that the
// scheduler-parity tests pin.
//
// All working memory is pooled in the Store (and cleared of pointers after
// use, so retired tours are never pinned): a steady-state export allocates
// nothing, which the snapshot publisher's alloc gate relies on.

// ExportComponents fills comp[v] with a dense component id for every
// vertex v in [0, upto), per the current forest: comp[u] == comp[v] iff u
// and v are in one tree. upto must be at most the structure's vertex count
// (callers embedding the structure in a gadget pass the original-vertex
// prefix). Ids are dense in [0, #components among the swept vertices) in
// first-occurrence order; an implicit vertex is a component of its own.
// Must not run concurrently with updates.
func (m *MSF) ExportComponents(comp []int32, upto int) {
	st := m.st
	st.snapRoots = slices.Grow(st.snapRoots[:0], upto)[:upto]
	roots := st.snapRoots
	// The kernel round: one processor per vertex, each a read-only
	// O(log n) tour-root walk writing only its own cell (the Lemma 3.1
	// shape insertclass.go charges on the update path; here uncharged).
	st.ch.Apply(upto, func(p int) {
		var t *Tour // nil: an implicit vertex
		if cp := st.pcs[p]; cp != nil {
			t = st.tourOf(cp.chunk)
		}
		roots[p] = t
	})
	// Host pass: densify the root pointers into component ids.
	densify(roots, comp[:upto])
	// Drop the tour pointers so the pooled scratch does not pin tours that
	// later surgery retires.
	clear(roots)
}
