// Package batch implements the data-parallel kernels behind the public
// batch-update API (parmsf.InsertEdges / DeleteEdges) and the bulk
// constructor: deterministic parallel sorting of update batches on a
// pram.Machine's executor, and the module's one static minimum spanning
// forest kernel, MSF, with its union-find UF (msf.go).
//
// The split between execution and accounting mirrors the rest of the
// repository: the model cost charged on the machine is the textbook EREW
// merge sort — log n merge levels, each a ranking merge of O(log n) depth
// and O(n) work, so O(log^2 n) depth and O(n log n) work total — and is a
// function of the batch size only. The real execution shape (how many
// chunks, which goroutine merges what) follows the machine's worker count
// and runs through Machine.Run, which charges nothing. A batch therefore
// produces identical Time/Work on a 1-worker and an 8-worker machine, while
// the wall clock scales with the pool.
package batch

import (
	"cmp"
	"slices"

	"parmsf/internal/pram"
)

// Edge is one weighted edge of a batch update in whatever vertex id space
// the receiving layer uses. It is the lingua franca of the batch interfaces
// between layers: parmsf hands []Edge to the composed engine, the
// sparsification tree hands per-node []Edge deltas to its node engines, and
// the ternary wrapper (whose BatchEdge is an alias of this type) translates
// them into gadget-level engine batches.
type Edge struct {
	U, V int
	W    int64
}

// Item is one element of a batch kernel: a 64-bit primary sort key (the
// edge weight), two operands (the endpoints), and the element's index in
// the original batch. The sort order is lexicographic over (Key, A, B, Idx)
// — a total order, so the sorted sequence is identical for every worker
// count and every merge schedule.
type Item struct {
	Key  int64
	A, B int
	Idx  int
}

// cmpItem is the package's one item comparator, over (Key, A, B, Idx).
func cmpItem(x, y Item) int {
	switch {
	case x.Key != y.Key:
		return cmp.Compare(x.Key, y.Key)
	case x.A != y.A:
		return cmp.Compare(x.A, y.A)
	case x.B != y.B:
		return cmp.Compare(x.B, y.B)
	}
	return cmp.Compare(x.Idx, y.Idx)
}

// parallelSortMin is the batch size below which fan-out costs more than it
// saves and Sort runs inline.
const parallelSortMin = 1 << 12

// Sort orders items by (Key, A, B, Idx) ascending. With a nil machine it is
// a plain sequential sort with no accounting. With a machine it charges the
// EREW merge-sort cost (depth O(log^2 n), work O(n log n)) regardless of
// backend, and on a parallel machine the work is actually executed across
// the worker pool: each worker sorts a contiguous chunk, then pairs of
// sorted runs merge in parallel rounds until one run remains.
func Sort(m *pram.Machine, items []Item) {
	n := len(items)
	if n < 2 {
		return
	}
	if m != nil {
		l := log2ceil(n)
		m.Steps(l*l, (n+l-1)/l)
	}
	if m == nil || m.Workers() == 1 || n < parallelSortMin {
		slices.SortFunc(items, cmpItem)
		return
	}

	// Phase 1: sort w contiguous chunks, one per worker.
	w := m.Workers()
	runLen := (n + w - 1) / w
	chunks := (n + runLen - 1) / runLen
	m.Run(chunks, func(c int) {
		lo := c * runLen
		hi := lo + runLen
		if hi > n {
			hi = n
		}
		slices.SortFunc(items[lo:hi], cmpItem)
	})

	// Phase 2: merge adjacent run pairs, doubling the run length each
	// round, ping-ponging between items and a scratch buffer.
	src, dst := items, make([]Item, n)
	for width := runLen; width < n; width *= 2 {
		tasks := (n + 2*width - 1) / (2 * width)
		s, d, wd := src, dst, width
		m.Run(tasks, func(t int) {
			lo := t * 2 * wd
			mid := lo + wd
			hi := mid + wd
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeRuns(d[lo:hi], s[lo:mid], s[mid:hi])
		})
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}

// mergeRuns merges sorted runs a and b into out (len(out) == len(a)+len(b)).
func mergeRuns(out, a, b []Item) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmpItem(b[j], a[i]) < 0 {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// log2ceil returns ceil(log2(x)) for x >= 1.
func log2ceil(x int) int {
	r := 0
	for w := 1; w < x; w *= 2 {
		r++
	}
	return r
}
