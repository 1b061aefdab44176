package parmsf

import "parmsf/internal/ternary"

// This file implements the parallel bulk constructor: Build computes the
// minimum spanning forest of the initial edge set statically with the
// module's filter-Kruskal kernel (batch.MSF: sort only the ~2n lightest
// edges around a kth-smallest pivot, union-find the heavy remainder away;
// SNIPPETS snippet 1) and loads the classified set directly into the
// engine stack — core Store/LSDS/CAdj via core.BulkLoad and ternary slot
// rings staged in rank order without intermediate surgeries, both behind
// ternary.Wrapper.Load — instead of streaming every edge through the
// incremental update path. With Options.Sparsify the accepted set takes
// the commit path's insert stage instead: the tree is fresh, so every node
// it touches takes the same Load. Cold-start is then roughly O(m log n)
// work rather than O(m sqrt(n) log n) sequential updates, and the same
// path doubles as Recover's rebuild primitive.

// Build creates a forest over n vertices (n >= 2) preloaded with edges, in
// bulk. The edge set is validated and deduplicated exactly as a per-edge
// replay would resolve it — malformed edges (out-of-range or equal
// endpoints, weights below MinWeight or equal to math.MaxInt64) fail with
// ErrBadEdge, repeats of an earlier edge with ErrExists — and the accepted
// set is classified statically and loaded without per-edge connectivity or
// path-max work. opt.MaxEdges is raised to the accepted edge count when
// smaller, so a bulk build never fails on capacity. The first snapshot
// epoch (1) is published before Build returns, so readers are lock-free
// immediately; the forest then behaves exactly as one built incrementally —
// mixed Insert/Delete/ingest streams, Close, and further epochs continue
// from there.
//
// The returned error slice is nil when every edge loaded; otherwise it has
// one entry per input edge (nil on success). The final error is non-nil
// only when no forest could be constructed at all: ErrTooFewVertices for
// n < 2 (as with New). The result is deterministic: for one input it is
// bit-identical across Workers values and equal to inserting the accepted
// edges with InsertEdges (or per-edge in ascending (W, U, V) order); ties
// between equal-weight edges resolve by the (W, U, V, index) order of the
// input, as with InsertEdges.
func Build(n int, edges []Edge, opt Options) (*Forest, []error, error) {
	if n < 2 {
		return nil, nil, ErrTooFewVertices
	}
	errs := make([]error, len(edges))
	seen := make(map[[2]int]bool, len(edges))
	accepted := 0
	for i, e := range edges {
		if !validEdge(n, e) {
			errs[i] = ErrBadEdge
			continue
		}
		k := jkey(e.U, e.V)
		if seen[k] {
			errs[i] = ErrExists
			continue
		}
		seen[k] = true
		accepted++
	}
	if opt.MaxEdges == 0 {
		opt.MaxEdges = 4 * n
	}
	if opt.MaxEdges < accepted {
		opt.MaxEdges = accepted
	}
	f, err := New(n, opt)
	if err != nil {
		return nil, nil, err
	}
	defer f.absorbSpars()()
	f.loadAccepted(edges, errs)
	for _, err := range errs {
		if err != nil {
			return f, errs, nil
		}
	}
	return f, nil, nil
}

// MustBuild is Build for static inputs known to construct: it panics on a
// construction error (tests, examples). The per-edge error slice is
// returned as with Build.
func MustBuild(n int, edges []Edge, opt Options) (*Forest, []error) {
	f, errs, err := Build(n, edges, opt)
	if err != nil {
		panic(err)
	}
	return f, errs
}

// loadAccepted drives the accepted subset of edges (errs[i] == nil) through
// the static bulk-load path, recording engine rejections in errs and
// journaling every loaded edge. It is the loader shared by Build and
// Recover's reload; the caller holds the engine exclusively and has
// arranged absorbSpars. A sparsification tree takes the commit path's
// insert stage, which loads every node of the fresh tree; otherwise the
// ternary wrapper loads the set, classified on the forest's machine.
func (f *Forest) loadAccepted(edges []Edge, errs []error) {
	if f.spars != nil {
		f.insertBatch(edges, errs)
		return
	}
	bes := make([]ternary.BatchEdge, 0, len(edges))
	idx := make([]int, 0, len(edges))
	for i, e := range edges {
		if errs[i] == nil {
			bes = append(bes, ternary.BatchEdge{U: e.U, V: e.V, W: e.W})
			idx = append(idx, i)
		}
	}
	for j, err := range f.eng.(*ternary.Wrapper).Load(bes, f.mach) {
		if err != nil {
			errs[idx[j]] = mapBatchInsertErr(err)
		}
	}
	// Commit point: journal what loaded (idempotent under reload, where the
	// journal itself was the source).
	for i, e := range edges {
		if errs[i] == nil {
			f.jour[jkey(e.U, e.V)] = e.W
		}
	}
}
