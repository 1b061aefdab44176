package core

import "parmsf/internal/seqtree"

// This file implements the cut-side hook of the incremental snapshot
// publisher: immediately after a tree-edge cut has split an Euler tour —
// tours re-normalized, before any replacement relinks them — the engine
// enumerates the vertex set of the smaller resulting tree and hands it to
// the CutSides callback, so the publisher can relabel exactly that side
// instead of resweeping all components. The smaller side is found without
// touching the larger one: a ping-pong walk over both tours' LSDS leaves
// accumulates chunk copy counts and always advances the lighter
// accumulation, so the walk is bounded by the smaller tour. Enumeration
// then walks that tour's copy cycle once, from the first copy of its first
// chunk (the cyclic order is the chunk order, which CheckInvariants checks),
// and collects each principal copy's vertex — one per vertex of the tree.
//
// Like the export sweep, this is uncharged maintenance: it reads structure
// state but models no paper primitive, so it must not perturb the PRAM
// depth/work counters that the scheduler-parity tests pin. The buffer is
// pooled in the MSF and only valid until the next cut; consumers must copy
// what they keep.

// emitCutSide reports the smaller side of a just-completed tree-edge cut
// that left tours t1 and t2, invoking CutSides with the pooled vertex
// buffer. No-op without a subscriber.
func (m *MSF) emitCutSide(t1, t2 *Tour) {
	if m.CutSides == nil {
		return
	}
	t := smallerTour(t1, t2)
	m.cutBuf = m.cutBuf[:0]
	first := firstCopy(t)
	for cp := first; ; {
		if cp.principal {
			m.cutBuf = append(m.cutBuf, cp.v)
		}
		if cp = cp.next; cp == first {
			break
		}
	}
	m.CutSides(m.cutBuf)
}

// smallerTour returns the tour with fewer copies, examining
// O(chunks of the smaller tour) LSDS leaves: the walk alternates toward
// whichever side has accumulated fewer copies, so the larger tour is never
// scanned past the smaller one's total.
func smallerTour(t1, t2 *Tour) *Tour {
	l1, l2 := seqtree.First(t1.root), seqtree.First(t2.root)
	s1, s2 := 0, 0
	for {
		if s1 <= s2 {
			if l1 == nil {
				return t1 // total s1 <= s2 <= |t2|
			}
			s1 += lsItem(l1).size()
			l1 = seqtree.Next(l1)
		} else {
			if l2 == nil {
				return t2
			}
			s2 += lsItem(l2).size()
			l2 = seqtree.Next(l2)
		}
	}
}
