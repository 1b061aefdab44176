package parmsf

import (
	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/ternary"
)

// This file implements the parallel bulk constructor: Build computes the
// minimum spanning forest of the initial edge set statically with a
// filter-Kruskal seed (sort only the ~2n lightest edges around a
// kth-smallest pivot, union-find the heavy remainder away; SNIPPETS
// snippet 1, after the deterministic-reservations technique of Blelloch et
// al.) and loads the classified set directly into the engine stack — core
// Store/LSDS/CAdj via core.BulkLoad, ternary slot rings staged in rank
// order without intermediate surgeries, and with Options.Sparsify the
// Section 5 tree assembled bottom-up through the per-node bulk routing —
// instead of streaming every edge through the incremental update path.
// Cold-start is then roughly O(m log n) work rather than O(m sqrt(n) log n)
// sequential updates, and the same path doubles as the shard
// rebuild/recovery primitive of the sharding roadmap item. The engine-level
// loader is core.MSF.BulkLoad (direct Euler-tour/chunk/CAdj/LSDS state
// construction).

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
	failed := 0
	seen := make(map[[2]int]bool, len(edges))
	accepted := 0
	for i, e := range edges {
		if !validEdge(n, e) {
			errs[i] = ErrBadEdge
			failed++
			continue
		}
		k := jkey(e.U, e.V)
		if seen[k] {
			errs[i] = ErrExists
			failed++
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
	if accepted == 0 {
		if failed == 0 {
			return f, nil, nil
		}
		return f, errs, nil
	}
	defer f.absorbSpars()()
	failed += f.loadAccepted(edges, errs)
	if failed == 0 {
		return f, nil, nil
	}
	return f, errs, nil
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
// arranged absorbSpars.
func (f *Forest) loadAccepted(edges []Edge, errs []error) (failed int) {
	items := make([]batch.Item, 0, len(edges))
	for i, e := range edges {
		if errs[i] == nil {
			items = append(items, batch.Item{Key: e.W, A: e.U, B: e.V, Idx: i})
		}
	}
	if len(items) == 0 {
		return 0
	}
	if f.spars != nil {
		// Sparsification path: the batch enters the Section 5 tree sorted —
		// so every node sees ascending weights and tie-breaks match per-edge
		// replay — and, the tree being fresh, every touched node routes
		// through the static bulk loader with a local Kruskal classification
		// (sparsify.Forest.bulkLoadNode), assembling the tree bottom-up in
		// one pipelined pass.
		batch.Sort(f.mach, items)
		bes := make([]ternary.BatchEdge, len(items))
		for i, it := range items {
			bes[i] = ternary.BatchEdge{U: it.A, V: it.B, W: it.Key}
		}
		for i, err := range f.spars.InsertEdges(bes) {
			if err != nil {
				errs[items[i].Idx] = mapBatchInsertErr(err)
				failed++
			}
		}
	} else {
		var sc buildScratch
		isTree := make([]bool, len(edges))
		treeOrdered := sc.classify(f.n, items, isTree, f.mach, f.ch)
		// Load order: tree edges ascending (concatenated Kruskal rounds are
		// globally sorted), then the non-tree remainder in input order — the
		// non-tree fast path is order-independent, so no sort is spent on
		// the heavy majority.
		bes := make([]ternary.BatchEdge, 0, len(items))
		flags := make([]bool, 0, len(items))
		bidx := make([]int, 0, len(items))
		for _, it := range treeOrdered {
			bes = append(bes, ternary.BatchEdge{U: it.A, V: it.B, W: it.Key})
			flags = append(flags, true)
			bidx = append(bidx, it.Idx)
		}
		for i, e := range edges {
			if errs[i] != nil || isTree[i] {
				continue
			}
			bes = append(bes, ternary.BatchEdge{U: e.U, V: e.V, W: e.W})
			flags = append(flags, false)
			bidx = append(bidx, i)
		}
		for i, err := range f.eng.(*ternary.Wrapper).BulkLoad(bes, flags) {
			if err != nil {
				errs[bidx[i]] = mapBatchInsertErr(err)
				failed++
			}
		}
	}
	// Commit point: journal what loaded (idempotent under reload, where the
	// journal itself was the source).
	for i, e := range edges {
		if errs[i] == nil {
			f.jour[jkey(e.U, e.V)] = e.W
		}
	}
	return failed
}

// buildScratch pools the filter-Kruskal classification state across rounds
// (and across Build calls when reused): the union-find over original
// vertices, the partition/filter flags, the quickselect buffer and the
// light/work/tree item slices. A warm classify allocates only what the
// sort kernels allocate internally (pinned by the build alloc gate).
type buildScratch struct {
	uf    []int32      // union-find parents over original vertices
	conn  []bool       // partition ("light") / filter ("connected") flags
	sel   []batch.Item // quickselect scratch copy
	light []batch.Item // light part of one round, sorted and Kruskal'd
	work  []batch.Item // surviving heavy edges between rounds
	tree  []batch.Item // accepted MSF edges, globally ascending
}

// kruskalCutoff is the smallest batch worth a pivot round: below it (and
// below 2n) the whole remainder is sorted and swept directly.
const kruskalCutoff = 4096

// classify partitions items into the MSF of the accepted set and its
// complement: filter-Kruskal rounds — kth-smallest pivot (batch.Select), a
// one-round partition kernel, parallel merge sort of the light prefix, a
// host Kruskal sweep, then a read-only union-find filter kernel dropping
// heavy edges whose endpoints are already connected — until the remainder
// fits one direct sort or the forest is complete. isTree (indexed by
// item Idx) is set for every accepted MSF edge; the returned slice holds
// the same edges in ascending (Key, A, B, Idx) order, backed by pooled
// scratch valid until the next classify.
//
// Determinism: the pivot is a pure function of the item multiset, the
// kernels write only their own cells, and every union-find mutation
// happens in host passes over sorted prefixes — so the classification (and
// the charges on ch) are bit-identical for every worker count.
func (b *buildScratch) classify(n int, items []batch.Item, isTree []bool, mach *pram.Machine, ch core.Charger) []batch.Item {
	b.uf = grow(b.uf, n)
	uf := b.uf
	for v := range uf {
		uf[v] = int32(v)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	// findRO resolves a root without path compression: safe for concurrent
	// read-only kernel lookups between host rounds.
	findRO := func(x int32) int32 {
		for uf[x] != x {
			x = uf[x]
		}
		return x
	}
	tree := b.tree[:0]
	work := append(b.work[:0], items...)
	limit := 2 * n
	if limit < kruskalCutoff {
		limit = kruskalCutoff
	}
	kruskal := func(sorted []batch.Item) {
		ch.Seq(len(sorted))
		for _, it := range sorted {
			ru, rv := find(int32(it.A)), find(int32(it.B))
			if ru != rv {
				uf[rv] = ru
				isTree[it.Idx] = true
				tree = append(tree, it)
			}
		}
	}
	for len(work) > 0 && len(tree) < n-1 {
		if len(work) <= limit {
			batch.Sort(mach, work)
			kruskal(work)
			break
		}
		// Partition around the kth-smallest tuple. Tuples are pairwise
		// distinct (distinct edges), so the light side has exactly `limit`
		// items; the kernel broadcasts the pivot and writes one flag cell
		// per processor.
		pivot, sel := batch.Select(work, limit-1, b.sel)
		b.sel = sel
		b.conn = grow(b.conn, len(work))
		conn := b.conn
		ch.ParDo(len(work), func(i int) {
			conn[i] = !batch.Less(pivot, work[i])
		})
		light := b.light[:0]
		heavy := work[:0]
		for i, it := range work {
			if conn[i] {
				light = append(light, it)
			} else {
				heavy = append(heavy, it)
			}
		}
		b.light = light
		batch.Sort(mach, light)
		kruskal(light)
		if len(tree) >= n-1 {
			break // forest complete: every heavy edge is non-tree
		}
		// Filter: drop heavy edges already connected — they can never enter
		// the MSF (cycle property against the lighter accepted prefix). The
		// root walks share reads of the union-find array, so the kernel is
		// charged as a parallel round and executed unchecked, as with the
		// insert-classification kernel.
		ch.Par(log2ceilHost(n+1), len(heavy))
		ch.Apply(len(heavy), func(i int) {
			conn[i] = findRO(int32(heavy[i].A)) == findRO(int32(heavy[i].B))
		})
		out := heavy[:0]
		for i, it := range heavy {
			if !conn[i] {
				out = append(out, it)
			}
		}
		work = out
	}
	b.work = work[:0]
	b.tree = tree
	return tree
}

// grow returns pooled scratch s resized to length n, growing capacity only
// when needed (the parmsf-level sibling of core's growScratch).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// log2ceilHost returns ceil(log2(x)) for x >= 1.
func log2ceilHost(x int) int {
	r := 0
	for w := 1; w < x; w *= 2 {
		r++
	}
	return r
}
