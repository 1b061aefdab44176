package core

import (
	"parmsf/internal/pram"
	"parmsf/internal/seqtree"
)

// This file exposes read-only instrumentation used by the benchmark harness
// (experiments E5, E6, E9): chunk occupancy against Invariant 1, BTc
// heights (the getEdge depth of Section 3), and LSDS shape statistics. Each
// implicit vertex counts as the one-copy chunk and one-leaf tour it stands
// for.

// implicitVertices returns the number of vertices that have no state yet.
func (st *Store) implicitVertices() int {
	k := 0
	for _, cp := range st.pcs {
		if cp == nil {
			k++
		}
	}
	return k
}

// Occupancy summarizes n_c over all live chunks: the count of chunks and
// the min / mean / max of n_c / K (Invariant 1 requires values in [1, 3]
// for chunks of multi-chunk lists).
func (st *Store) Occupancy() (count int, min, mean, max float64) {
	min = 1e18
	var sum float64
	for _, t := range st.tourByRoot {
		seqtree.Leaves(t.root, func(l *lsNode) bool {
			c := lsItem(l)
			r := float64(c.nc()) / float64(st.K)
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
			sum += r
			count++
			return true
		})
	}
	if k := st.implicitVertices(); k > 0 {
		r := 1 / float64(st.K)
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
		sum += float64(k) * r
		count += k
	}
	if count == 0 {
		return 0, 0, 0, 0
	}
	return count, min, sum / float64(count), max
}

// BTHeightStats returns the mean and max height of the per-chunk BTc trees;
// the parallel getEdge runs in O(height) rounds.
func (st *Store) BTHeightStats() (mean float64, max int) {
	var sum, cnt float64
	for _, t := range st.tourByRoot {
		seqtree.Leaves(t.root, func(l *lsNode) bool {
			h := lsItem(l).bt.Height()
			if h > max {
				max = h
			}
			sum += float64(h)
			cnt++
			return true
		})
	}
	cnt += float64(st.implicitVertices())
	if cnt == 0 {
		return 0, 0
	}
	return sum / cnt, max
}

// LSDSHeightStats returns the mean and max height of the per-tour LSDS
// trees (split/join and UpdateAdj touch O(height) nodes).
func (st *Store) LSDSHeightStats() (mean float64, max int) {
	var sum, cnt float64
	for _, t := range st.tourByRoot {
		h := t.root.Height()
		if h > max {
			max = h
		}
		sum += float64(h)
		cnt++
	}
	cnt += float64(st.implicitVertices())
	if cnt == 0 {
		return 0, 0
	}
	return sum / cnt, max
}

// RegisteredChunks returns the number of registered chunks (bounded by J).
func (st *Store) RegisteredChunks() int {
	n := 0
	for _, c := range st.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// Machine returns the PRAM machine of the installed charger (nil for the
// sequential driver).
func (m *MSF) Machine() *pram.Machine { return m.st.ch.Machine() }

// SameTour reports whether u and v lie on one Euler tour — connectivity
// answered by the list structure itself (root comparison, O(log n)),
// independent of the link-cut forest. The checker cross-validates the two.
// An implicit vertex is alone on its tour.
func (st *Store) SameTour(u, v int) bool {
	if u == v {
		return true
	}
	pu, pv := st.pcs[u], st.pcs[v]
	if pu == nil || pv == nil {
		return false
	}
	return st.tourOf(pu.chunk) == st.tourOf(pv.chunk)
}
