// Package tourney implements the tournament-tree kernels of Section 3 on the
// EREW PRAM simulator. It is the reference implementation: the core engine
// computes a rebuilt CAdj row and the MWR gamma minimum on the host and
// charges the rounds these kernels take, and core's tests run the kernels
// beside those charges and require the same counters.
//
// Forest is the structure of Lemma 3.1: J balanced binary tournament trees of
// L leaves each, reused across operations via epoch timestamps (the paper's
// footnote 1 mechanism, which lets the cost analysis ignore initialization).
// Run executes the paper's iterative four-phase process: active processors
// hold (tree, value) pairs placed at distinct leaves, and after O(log L)
// rounds the minimum value per tree sits at that tree's root, with exactly
// one surviving processor per touched tree (ties favor the left, as in the
// paper). MinReduce is the single-tree special case: Lemma 3.3's minimum
// over the gamma array.
package tourney

import (
	"math"

	"parmsf/internal/pram"
)

// Entry is one tournament participant: a value destined for a tree, with an
// opaque payload (typically an edge index) carried alongside so the caller
// can recover the argmin.
type Entry struct {
	Tree    int32 // destination tree id; negative = inactive slot
	Val     int64
	Payload int32
}

// Forest is a reusable set of tournament trees on a PRAM machine.
type Forest struct {
	m      *Machine
	size   int // leaves per tree, power of two
	levels int
	// Per-node state, indexed tree*2*size + heapIndex (heap indices
	// 1..2*size-1; leaves at size..2*size-1). Stamped by epoch so reuse
	// needs no clearing.
	val     []int64
	payload []int32
	stamp   []uint32
	epoch   uint32
	space   *pram.Space

	// cs holds the contestants of the Run in flight; its capacity is
	// reused across runs. phases are the four per-level phase kernels,
	// bound once in NewForest: a method value handed to the machine's
	// executor escapes, so binding it per level would allocate every Run.
	cs     []contestant
	phases [4]func(i int)
}

// Machine is an alias so callers don't import pram just for the type.
type Machine = pram.Machine

// NewForest allocates a forest of `trees` tournament trees with capacity for
// `leaves` participants each (rounded up to a power of two).
func NewForest(m *Machine, trees, leaves int) *Forest {
	size := 1
	levels := 0
	for size < leaves {
		size *= 2
		levels++
	}
	if levels == 0 {
		levels = 1
		size = 2 // at least one comparison level so Run terminates at root
	}
	n := trees * 2 * size
	f := &Forest{
		m:       m,
		size:    size,
		levels:  levels,
		val:     make([]int64, n),
		payload: make([]int32, n),
		stamp:   make([]uint32, n),
		space:   m.NewSpace("tourney", n),
	}
	f.phases = [4]func(i int){f.writeLeft, f.compareRight, f.rereadLeft, f.ascend}
	return f
}

// tourneyFanMin is the round width at which tournament phases fan out to
// the machine's worker pool; smaller rounds run inline on the host (the
// dispatch barrier costs more than a few hundred O(1) comparisons).
const tourneyFanMin = 1 << 10

type contestant struct {
	idx     int // heap index within the tree segment
	base    int // tree * 2 * size
	val     int64
	payload int32
	tree    int32
	active  bool
}

// Run executes the four-phase tournament for the given participants;
// entries[k] occupies leaf k of its destination tree (so len(entries) must
// not exceed the per-tree leaf capacity, and inactive slots use Tree < 0).
// emit is called once per touched tree with that tree's minimum value and
// its payload.
//
// Cost charged on the machine: one round to place leaves, then 4 rounds per
// level with the surviving processor count as width — O(log L) depth, O(P)
// work for P participants, matching Lemma 3.1.
func (f *Forest) Run(entries []Entry, emit func(tree int32, val int64, payload int32)) {
	if len(entries) > f.size {
		panic("tourney: more participants than leaf capacity")
	}
	f.epoch++
	cs := f.cs[:0]
	m := f.m

	// Placement round: each processor writes its leaf.
	m.Steps(1, countActive(entries))
	for k, e := range entries {
		if e.Tree < 0 {
			continue
		}
		base := int(e.Tree) * 2 * f.size
		idx := f.size + k
		f.set(base+idx, e.Val, e.Payload)
		cs = append(cs, contestant{idx: idx, base: base, val: e.Val, payload: e.Payload, tree: e.Tree, active: true})
	}
	f.cs = cs

	// Each phase is one synchronous round: the cost is charged by Steps
	// with the surviving processor count, and the effect application runs
	// through the machine's executor (for real, across the worker pool, on
	// large rounds). The phases are EREW-clean — each contestant touches
	// only its own state and its own parent cell, with left and right
	// children separated by the phase barrier — so pool execution is
	// race-free and the outcome is identical for every worker count.
	for level := 0; level < f.levels; level++ {
		active := activeCount(cs)
		if active == 0 {
			break
		}
		for _, phase := range f.phases {
			m.Steps(1, active)
			if len(cs) >= tourneyFanMin {
				m.Run(len(cs), phase)
				continue
			}
			for i := range cs {
				phase(i)
			}
		}
	}
	for i := range cs {
		if cs[i].active {
			if cs[i].idx != 1 {
				panic("tourney: survivor not at root")
			}
			emit(cs[i].tree, cs[i].val, cs[i].payload)
		}
	}
}

// writeLeft is phase 1: left children write their value into the parent.
func (f *Forest) writeLeft(i int) {
	c := &f.cs[i]
	if c.active && c.idx%2 == 0 {
		p := c.base + c.idx/2
		f.space.Touch(i, p)
		f.set(p, c.val, c.payload)
	}
}

// compareRight is phase 2: right children compare; they overwrite a
// heavier parent or deactivate.
func (f *Forest) compareRight(i int) {
	c := &f.cs[i]
	if !c.active || c.idx%2 == 0 {
		return
	}
	p := c.base + c.idx/2
	f.space.Touch(i, p)
	pv, ok := f.get(p)
	if !ok || pv > c.val {
		f.set(p, c.val, c.payload)
	} else {
		c.active = false
	}
}

// rereadLeft is phase 3: left children re-read; a lighter right sibling
// won.
func (f *Forest) rereadLeft(i int) {
	c := &f.cs[i]
	if !c.active || c.idx%2 != 0 {
		return
	}
	p := c.base + c.idx/2
	f.space.Touch(i, p)
	if pv, ok := f.get(p); ok && pv < c.val {
		c.active = false
	}
}

// ascend is phase 4: survivors ascend.
func (f *Forest) ascend(i int) {
	if c := &f.cs[i]; c.active {
		c.idx /= 2
	}
}

func (f *Forest) set(i int, v int64, pl int32) {
	f.val[i] = v
	f.payload[i] = pl
	f.stamp[i] = f.epoch
}

func (f *Forest) get(i int) (int64, bool) {
	if f.stamp[i] != f.epoch {
		return 0, false
	}
	return f.val[i], true
}

func countActive(entries []Entry) int {
	n := 0
	for _, e := range entries {
		if e.Tree >= 0 {
			n++
		}
	}
	return n
}

func activeCount(cs []contestant) int {
	n := 0
	for i := range cs {
		if cs[i].active {
			n++
		}
	}
	return n
}

// MinReduce finds the minimum of vals (with its index) using a single
// binary tournament: O(log n) depth, O(n) work on machine m. Entries equal
// to skip (use math.MaxInt64 to disable skipping nothing) are treated as
// absent. Returns (index, value); index is -1 when all entries are skipped.
func MinReduce(m *Machine, vals []int64, skip int64) (int, int64) {
	n := len(vals)
	if n == 0 {
		return -1, math.MaxInt64
	}
	type slot struct {
		val int64
		idx int32
	}
	cur := make([]slot, 0, n)
	for i, v := range vals {
		if v == skip {
			continue
		}
		cur = append(cur, slot{v, int32(i)})
	}
	// One round for the parallel load of the leaves.
	m.Steps(1, len(cur))
	for len(cur) > 1 {
		pairs := len(cur) / 2
		m.Steps(1, (len(cur)+1)/2)
		out := make([]slot, (len(cur)+1)/2)
		// Each comparison writes its own output slot, so large rounds run
		// across the worker pool; ties favor the left, as in the paper, for
		// every worker count.
		combine := func(i int) {
			a, b := cur[2*i], cur[2*i+1]
			if b.val < a.val {
				a = b
			}
			out[i] = a
		}
		if pairs >= tourneyFanMin {
			m.Run(pairs, combine)
		} else {
			for i := 0; i < pairs; i++ {
				combine(i)
			}
		}
		if len(cur)%2 == 1 {
			out[pairs] = cur[len(cur)-1]
		}
		cur = out
	}
	if len(cur) == 0 {
		return -1, math.MaxInt64
	}
	return int(cur[0].idx), cur[0].val
}
