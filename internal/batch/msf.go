package batch

import "parmsf/internal/pram"

// This file is the module's one static minimum-spanning-forest kernel, a
// filter-Kruskal classifier (SNIPPETS snippet 1) behind Build and
// Recover's flat load, the sparsification tree's per-node bulk load and
// small-node recompute, and the cluster's composed view; the core engine replays batch merges on its
// union-find. The MSF of a union of minimum spanning forests is the MSF of
// the whole, so one kernel serves the flat graph and every contraction of
// it.

// UF is a union-find over dense ids 0..n-1 with path halving. The zero
// value is empty; Reset sizes it, reusing its capacity.
type UF struct{ parent []int32 }

// Reset makes u n singletons.
func (u *UF) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
	}
	u.parent = u.parent[:n]
	for v := range u.parent {
		u.parent[v] = int32(v)
	}
}

// Find returns the root of x's component, halving the path it walks.
func (u *UF) Find(x int) int {
	p := u.parent
	for int(p[x]) != x {
		p[x] = p[p[x]]
		x = int(p[x])
	}
	return x
}

// Union merges the components of a and b, attaching b's root under a's,
// and reports whether they were distinct.
func (u *UF) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	u.parent[rb] = int32(ra)
	return true
}

// root is Find without path compression: read-only, so the processors of a
// kernel may call it concurrently between host passes.
func (u *UF) root(x int) int {
	for int(u.parent[x]) != x {
		x = int(u.parent[x])
	}
	return x
}

// MSF classifies static edge sets into their minimum spanning forest and
// its complement under the (Key, A, B, Idx) order, pooling its scratch
// across calls. After Classify, the embedded UF holds the forest's
// components.
type MSF struct {
	UF
	flag []bool // partition ("light") and filter ("connected") flags
	sel  []Item // quickselect's copy of the pivot round's items
}

// kruskalCutoff is the smallest remainder worth a pivot round: below it
// (and below 2n) the remainder is sorted and swept directly.
const kruskalCutoff = 4096

// Classify partitions items — edges over vertices 0..n-1, keyed by weight,
// pairwise distinct under the (Key, A, B, Idx) order — into their minimum
// spanning forest and its complement, in place. It runs filter-Kruskal
// rounds until the remainder fits one direct sort or the forest is
// complete: a kth-smallest pivot leaving 2n (at least kruskalCutoff)
// items on the light side, a one-round partition kernel, a merge sort of
// the light side, a host Kruskal sweep, then a filter kernel dropping the
// heavy items whose endpoints the sweep already connected — they close a
// cycle with lighter forest edges and can never join the forest.
//
// Classify reorders items and returns the forest as their ascending
// prefix; the rest of items is the complement, in no particular order.
// When isTree is non-nil it is set at each forest item's Idx. With a
// machine every kernel is charged on m and runs on its executor; with a
// nil m everything runs inline and uncharged. The pivot is a pure function
// of the item set, the kernels write only their own cells, and every
// union-find mutation happens in host passes over sorted runs, so the
// classification and the charges are the same for every worker count.
func (k *MSF) Classify(m *pram.Machine, n int, items []Item, isTree []bool) []Item {
	k.Reset(n)
	limit := max(2*n, kruskalCutoff)
	// items[:t] is the forest so far, ascending; items[t:e] the live
	// remainder; items[e:] the complement found by earlier filters.
	t, e := 0, len(items)
	for t < e && t < n-1 {
		if e-t <= limit {
			Sort(m, items[t:e])
			t = k.sweep(m, items, t, e, isTree)
			break
		}
		// Partition around the kth-smallest item. Items are pairwise
		// distinct, so the light side has exactly limit of them.
		work := items[t:e]
		pivot := k.kth(work, limit-1)
		if cap(k.flag) < len(work) {
			k.flag = make([]bool, len(work))
		}
		flag := k.flag[:len(work)]
		kernel(m, 1, len(work), func(i int) { flag[i] = cmpItem(pivot, work[i]) >= 0 })
		light := 0
		for i, it := range work {
			if flag[i] {
				work[light], work[i] = it, work[light]
				light++
			}
		}
		Sort(m, work[:light])
		heavy := work[light:]
		if t = k.sweep(m, items, t, t+light, isTree); t >= n-1 {
			break // forest complete: every heavy item is in the complement
		}
		// Filter: the root walks share reads of the union-find, so the
		// kernel is charged one round per level of a balanced tree. The
		// processors walk a copy of its header, so k itself never escapes
		// and a caller's kernel can live on the stack.
		flag = flag[:len(heavy)]
		uf := k.UF
		kernel(m, log2ceil(n+1), len(heavy), func(i int) {
			flag[i] = uf.root(heavy[i].A) == uf.root(heavy[i].B)
		})
		e = t
		for i, it := range heavy {
			if !flag[i] {
				items[e], heavy[i] = it, items[e]
				e++
			}
		}
	}
	return items[:t]
}

// sweep is the host Kruskal pass over the sorted run items[t:hi]: every
// item joining two components is swapped onto the end of the forest
// prefix items[:t], which stays ascending. It returns the new prefix
// length.
func (k *MSF) sweep(m *pram.Machine, items []Item, t, hi int, isTree []bool) int {
	if m != nil {
		m.Seq(int64(hi - t))
	}
	for j := t; j < hi; j++ {
		it := items[j]
		if !k.Union(it.A, it.B) {
			continue
		}
		if isTree != nil {
			isTree[it.Idx] = true
		}
		items[t], items[j] = it, items[t]
		t++
	}
	return t
}

// kernel runs width independent iterations of f as one data-parallel
// kernel of the given depth: charged on m and executed on its executor,
// or inline and uncharged without a machine. Distinct iterations must
// write distinct cells.
func kernel(m *pram.Machine, depth, width int, f func(i int)) {
	if m == nil {
		for i := 0; i < width; i++ {
			f(i)
		}
		return
	}
	m.Steps(depth, width)
	m.Run(width, f)
}

// kth returns the r-th smallest (0-based) of items without reordering
// them: a host quickselect with median-of-three pivoting over the pooled
// copy. The result depends only on the item set — not on its order, the
// worker count or the schedule.
func (k *MSF) kth(items []Item, r int) Item {
	k.sel = append(k.sel[:0], items...)
	s := k.sel
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := partition(s, lo, hi)
		switch {
		case r < p:
			hi = p - 1
		case r > p:
			lo = p + 1
		default:
			return s[r]
		}
	}
	return s[r]
}

// partition performs one Lomuto-style split of s[lo:hi+1] around a
// median-of-three pivot, returning the pivot's final index.
func partition(s []Item, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if cmpItem(s[mid], s[lo]) < 0 {
		s[mid], s[lo] = s[lo], s[mid]
	}
	if cmpItem(s[hi], s[lo]) < 0 {
		s[hi], s[lo] = s[lo], s[hi]
	}
	if cmpItem(s[hi], s[mid]) < 0 {
		s[hi], s[mid] = s[mid], s[hi]
	}
	// Median at mid; park it just before hi and partition the interior.
	s[mid], s[hi-1] = s[hi-1], s[mid]
	if hi-lo < 3 {
		return lo + 1 // three or fewer elements: the swaps above sorted them
	}
	pv := s[hi-1]
	i := lo
	for j := lo; j < hi-1; j++ {
		if cmpItem(s[j], pv) < 0 {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[hi-1] = s[hi-1], s[i]
	return i
}
