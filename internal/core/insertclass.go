package core

import (
	"slices"

	"parmsf/internal/batch"
)

// This file implements the batched insert-side classification of the
// pipeline's insert stage. Per-edge insertion answers "are u and v already
// connected?" with a dynamic-tree query per edge — a sequential pointer
// walk that also splays, so it cannot be fanned out. For a batch, the same
// question is answered read-only by the list structure itself: one kernel
// round computes the tour root of every endpoint (the SameTour primitive,
// a pure pointer walk up the Euler-tour trees), and a host-side union-find
// over those root tokens replays the batch's own merges in plan order —
// insertions only ever merge components, never split them, so the
// pre-stage roots plus the batch's links determine every answer exactly.
// Only the path-max queries of the already-connected cases (and the
// dynamic-tree links themselves) remain sequential.

// insertConn resolves connectivity for the planned insertions: ids[2i] and
// ids[2i+1] are the union-find tokens of planned insertion i's endpoint
// roots.
type insertConn struct {
	ids []int32  // per endpoint: dense id of its tour root
	uf  batch.UF // over root ids
}

// planInsertConnectivity computes the endpoint tour roots of every planned
// insertion of the batch in flight (the plan's Inserts) in one
// data-parallel round (2k processors, one per endpoint, each a read-only
// O(log n) walk writing only its own cell) and densifies them into
// union-find tokens. It must run after the deletion stages: deletions split
// tours, so the roots snapshot the exact pre-insert state. The returned
// value is pooled Store scratch, valid until the next batch.
func (m *MSF) planInsertConnectivity() *insertConn {
	st := m.st
	k := len(st.planIns)
	st.rootScratch = slices.Grow(st.rootScratch[:0], 2*k)[:2*k]
	roots := st.rootScratch
	st.ch.Par(log2ceil(st.n+1), 2*k) // Lemma 3.1 shape: parallel root walks
	st.ch.Apply(2*k, st.rootKernel)

	// Host pass: densify the root pointers into union-find ids.
	st.ch.Seq(k)
	ic := &st.ic
	ic.ids = slices.Grow(ic.ids[:0], 2*k)[:2*k]
	ic.uf.Reset(densify(roots, ic.ids))
	// Drop the tour pointers so the pooled scratch does not pin tours that
	// later surgery retires.
	clear(roots)
	return ic
}

// densify writes to ids[i] a dense id of tour roots[i], handing ids out in
// first-occurrence order (deterministic for every worker count), and
// returns the number of distinct tours. A nil root is an implicit vertex,
// whose one-copy tour gets the next id as the singleton it stands for. A
// tour holds its id in tok during the call only.
func densify(roots []*Tour, ids []int32) int {
	var n int32
	for i, t := range roots {
		if t == nil {
			n++
			ids[i] = n - 1
			continue
		}
		if t.tok == 0 {
			n++
			t.tok = n
		}
		ids[i] = t.tok - 1
	}
	for _, t := range roots {
		if t != nil {
			t.tok = 0
		}
	}
	return int(n)
}

// rootWalk is the root kernel's processor p: the tour root of endpoint p%2
// of planned insertion p/2.
func (st *Store) rootWalk(p int) {
	op := st.batchOps[st.planIns[p/2]]
	v := op.U
	if p%2 == 1 {
		v = op.V
	}
	st.rootScratch[p] = st.tourOf(st.pcs[v].chunk)
}

// connected reports whether planned insertion i joins two vertices already
// in one component — per the pre-stage roots plus the unions recorded for
// the batch's earlier successful links.
func (ic *insertConn) connected(i int) bool {
	return ic.uf.Find(int(ic.ids[2*i])) == ic.uf.Find(int(ic.ids[2*i+1]))
}

// union records that insertion i linked its two components.
func (ic *insertConn) union(i int) { ic.uf.Union(int(ic.ids[2*i]), int(ic.ids[2*i+1])) }
