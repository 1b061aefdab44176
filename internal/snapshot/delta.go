package snapshot

import (
	"sync/atomic"
	"time"
)

// This file implements the O(delta) publication path. An era is a
// fixed-capacity arena shared by every snapshot published since the last
// rebase. Its reader-visible state is append-only and epoch-stamped:
//
//   - base: the dense label array swept in at the rebase (labels < n);
//   - a label-override log: a cut mints a fresh label for the smaller
//     side's vertices, appending one (vertex, label, rel) entry each,
//     chained per vertex through logPrev with lastIdx as the chain head;
//   - a merge table: a link merges the smaller component's label into the
//     larger's, recording (rel, winner) — write-once per label, since a
//     label that lost is never a union-find root again;
//   - a copy-on-write edge log: links append entries, cuts stamp a death
//     epoch into dead.
//
// A reader resolves v's label at relative epoch rel by walking v's chain
// back to the newest entry stamped <= rel (base if none), then following
// merge entries stamped <= rel; the walk terminates because losing order
// topologically orders the merge table. All reader-visible slices are set
// to full capacity when the era is reset, so their headers never change
// while readers hold the era; the publisher tracks logical lengths in
// plain counters and each snapshot bounds its own reads by the stamp and
// entry count it froze at publication. Synchronization is exactly two
// atomics: lastIdx (a log entry's fields are written before the store
// that makes it reachable) and the merge/death stamps themselves; entries
// stamped with a not-yet-published epoch are invisible to every reader,
// which is what makes mid-batch failure safe — TryPublishDelta may bail
// after partial writes (capacity exhausted, or the delta disagrees with
// the era's bookkeeping) and the caller republishes through the Builder
// sweep into a different era, while the abandoned writes stay forever
// hidden behind the epoch guard.
//
// Capacities are the rebase trigger: the override log holds n/8 entries
// (so amortized publication stays O(delta)), and the label and edge arrays
// are sized so they cannot overflow before the log does (each cut appends
// at least one log entry and mints at most one label; each link appends
// one edge entry, and links are bounded by base components plus cuts).

// era is the shared arena behind the snapshots of one rebase interval.
type era struct {
	n int

	// Reader-visible; see the file comment for the access protocol.
	base    []int32
	lastIdx []int32 // atomic: 1 + index of v's newest log entry, 0 = none
	logV    []int32
	logL    []int32
	logEp   []uint32
	logPrev []int32  // previous entry for the same vertex, -1 = none
	merged  []uint64 // atomic: rel<<32 | winner label, 0 = never lost
	edges   []Edge
	dead    []uint32 // atomic: epoch the entry died at, 0 = alive

	// Publisher-private working state.
	wraw    []int32          // current raw (pre-merge) label per vertex
	lpar    []int32          // label union-find parent
	lsize   []int32          // component size at union-find roots
	eidx    map[uint64]int32 // canonical edge key -> live edge entry
	relCur  uint32           // last published relative epoch
	logLen  int
	edgeLen int
	weight  int64
	nlive   int
	nextLab int32
	snaps   int // shells referencing this era (publisher side)
}

// edgeKey canonicalizes an edge's endpoints into one map key.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// eraCaps derives the fixed capacities for an era over n vertices.
func eraCaps(n int) (logCap, labelCap, edgeCap int) {
	logCap = n / 8
	if logCap < 16 {
		logCap = 16
	}
	return logCap, n + logCap, n + 2*logCap
}

// resetEra returns e reinitialized for a fresh rebase over n vertices,
// allocating a new era only when e is nil or undersized. All
// reader-visible slices are set to full capacity here and never resliced
// again; the epoch stamps are cleared with plain writes, which is safe
// because a pooled era has no shell referencing it (and so no validated
// reader).
func resetEra(e *era, n int) *era {
	logCap, labelCap, edgeCap := eraCaps(n)
	if e == nil || cap(e.base) < n || cap(e.logV) < logCap || cap(e.edges) < edgeCap {
		e = &era{
			base:    make([]int32, n),
			lastIdx: make([]int32, n),
			wraw:    make([]int32, n),
			logV:    make([]int32, logCap),
			logL:    make([]int32, logCap),
			logEp:   make([]uint32, logCap),
			logPrev: make([]int32, logCap),
			merged:  make([]uint64, labelCap),
			lpar:    make([]int32, labelCap),
			lsize:   make([]int32, labelCap),
			edges:   make([]Edge, edgeCap),
			dead:    make([]uint32, edgeCap),
			eidx:    make(map[uint64]int32, n),
		}
	}
	e.n = n
	e.base = e.base[:n]
	e.lastIdx = e.lastIdx[:n]
	e.wraw = e.wraw[:n]
	e.logV = e.logV[:logCap]
	e.logL = e.logL[:logCap]
	e.logEp = e.logEp[:logCap]
	e.logPrev = e.logPrev[:logCap]
	e.merged = e.merged[:labelCap]
	e.lpar = e.lpar[:labelCap]
	e.lsize = e.lsize[:labelCap]
	e.edges = e.edges[:edgeCap]
	e.dead = e.dead[:edgeCap]
	for i := range e.lastIdx {
		e.lastIdx[i] = 0
	}
	for i := range e.merged {
		e.merged[i] = 0
	}
	for i := range e.dead {
		e.dead[i] = 0
	}
	e.relCur = 0
	e.logLen = 0
	e.edgeLen = 0
	e.weight = 0
	e.nlive = 0
	e.nextLab = int32(n)
	return e
}

// appendBaseEdge records one rebase forest edge. The capacity exceeds any
// forest (edgeCap > n-1), so the edge list never grows.
func (e *era) appendBaseEdge(u, v int, w int64) {
	e.edges[e.edgeLen] = Edge{U: u, V: v, W: w}
	e.edgeLen++
}

// seal derives the publisher-private working state from the swept-in base
// labels and edge list, completing a rebase era before publication.
func (e *era) seal() {
	copy(e.wraw, e.base)
	for i := range e.lpar {
		e.lpar[i] = int32(i)
		e.lsize[i] = 0
	}
	for _, l := range e.base {
		e.lsize[l]++
	}
	for k := range e.eidx {
		delete(e.eidx, k)
	}
	for i := 0; i < e.edgeLen; i++ {
		e.eidx[edgeKey(e.edges[i].U, e.edges[i].V)] = int32(i)
	}
	e.nlive = e.edgeLen
}

// labelOf resolves v's component label as of relative epoch rel: the
// newest override stamped <= rel (base if none), pushed through every
// merge stamped <= rel. Safe for concurrent readers; see the file
// comment.
func (e *era) labelOf(v int, rel uint32) int32 {
	raw := e.base[v]
	if li := atomic.LoadInt32(&e.lastIdx[v]); li != 0 {
		i := li - 1
		for i >= 0 && e.logEp[i] > rel {
			i = e.logPrev[i]
		}
		if i >= 0 {
			raw = e.logL[i]
		}
	}
	for {
		m := atomic.LoadUint64(&e.merged[raw])
		if m == 0 || uint32(m>>32) > rel {
			return raw
		}
		raw = int32(uint32(m))
	}
}

// find is the publisher-private label union-find lookup (path halving).
func (e *era) find(x int32) int32 {
	for e.lpar[x] != x {
		e.lpar[x] = e.lpar[e.lpar[x]]
		x = e.lpar[x]
	}
	return x
}

// DeltaOp is one forest mutation of an applied update batch, in
// application order: a link (Del false) that joined two components with
// edge (U, V, W), or a cut (Del true) that removed forest edge (U, V, W)
// and split its tree, with the vertex set of one resulting side — by
// convention the smaller, though any strict side is correct — recorded at
// sides[SideStart : SideStart+SideLen]. SideLen <= 0 marks a cut whose
// side the engine could not enumerate; such a delta is refused.
type DeltaOp struct {
	Del                bool
	U, V               int
	W                  int64
	SideStart, SideLen int32
}

// applyLink applies a component merge to the era at epoch rel. Reports
// false — possibly after partial, epoch-guarded writes — when the link
// cannot be expressed (capacity, or disagreement with the era's
// bookkeeping); the caller must then rebase.
func (e *era) applyLink(rel uint32, op DeltaOp) bool {
	if op.U < 0 || op.U >= e.n || op.V < 0 || op.V >= e.n || op.U == op.V {
		return false
	}
	if e.edgeLen >= len(e.edges) {
		return false
	}
	lu := e.find(e.wraw[op.U])
	lv := e.find(e.wraw[op.V])
	if lu == lv {
		return false // not a component merge: out of sync with the engine
	}
	k := edgeKey(op.U, op.V)
	if _, dup := e.eidx[k]; dup {
		return false
	}
	if e.lsize[lu] < e.lsize[lv] {
		lu, lv = lv, lu
	}
	if e.merged[lv] != 0 {
		return false // a root label cannot have lost already
	}
	atomic.StoreUint64(&e.merged[lv], uint64(rel)<<32|uint64(uint32(lu)))
	e.lpar[lv] = lu
	e.lsize[lu] += e.lsize[lv]
	i := e.edgeLen
	e.edges[i] = Edge{U: op.U, V: op.V, W: op.W}
	// dead[i] is already zero: edge entries are never reused within an era.
	e.eidx[k] = int32(i)
	e.edgeLen++
	e.weight += op.W
	e.nlive++
	return true
}

// applyCut applies a forest cut to the era at epoch rel, relabeling the
// given side with a freshly minted label. Reports false — possibly after
// partial, epoch-guarded writes — when the cut cannot be expressed; the
// caller must then rebase.
func (e *era) applyCut(rel uint32, op DeltaOp, side []int32) bool {
	if op.U < 0 || op.U >= e.n || op.V < 0 || op.V >= e.n || len(side) == 0 {
		return false
	}
	if e.logLen+len(side) > len(e.logV) || int(e.nextLab) >= len(e.lpar) {
		return false
	}
	k := edgeKey(op.U, op.V)
	i, ok := e.eidx[k]
	if !ok || e.edges[i].W != op.W {
		return false
	}
	delete(e.eidx, k)
	atomic.StoreUint32(&e.dead[i], rel)
	e.nlive--
	e.weight -= op.W
	ol := e.find(e.wraw[side[0]])
	L := e.nextLab
	e.nextLab++
	// lpar[L] == L and lsize[L] == 0 from seal; L has never been used.
	e.lsize[L] = int32(len(side))
	e.lsize[ol] -= int32(len(side))
	if e.lsize[ol] <= 0 {
		return false // the side must be a strict subset of its component
	}
	for _, v := range side {
		if v < 0 || int(v) >= e.n || e.find(e.wraw[v]) != ol {
			return false // duplicate or foreign vertex in the side
		}
		j := e.logLen
		e.logV[j] = v
		e.logL[j] = L
		e.logEp[j] = rel
		e.logPrev[j] = e.lastIdx[v] - 1
		atomic.StoreInt32(&e.lastIdx[v], int32(j)+1)
		e.wraw[v] = L
		e.logLen++
	}
	return true
}

// TryPublishDelta publishes the next epoch as a delta over the current
// era: ops apply in order (a link is one O(1) label union and one edge
// append; a cut stamps one edge dead and relabels only its recorded
// side), then a pooled shell freezes the era at the new epoch stamp and
// swaps in atomically. Reports false without publishing when the delta
// cannot be expressed — era capacity exhausted, a forced-rebase threshold
// reached (SetRebaseEvery), a cut without side information, or any
// disagreement between the delta and the era's bookkeeping — in which
// case the caller must republish through the Builder sweep; partial
// writes from the failed attempt stay hidden behind the unpublished epoch
// stamp. Publisher side only.
func (p *Publisher) TryPublishDelta(ops []DeltaOp, sides []int32) bool {
	p.fault.Hit(fpPublish)
	e := p.curEra
	if e == nil || len(ops) == 0 {
		return false
	}
	rel := e.relCur + 1
	if p.rebaseEvery > 0 && rel >= uint32(p.rebaseEvery) {
		return false
	}
	t0 := time.Now().UnixNano()
	patch0 := e.logLen
	for _, op := range ops {
		if op.Del {
			if op.SideLen <= 0 || !e.applyCut(rel, op, sides[op.SideStart:op.SideStart+op.SideLen]) {
				return false
			}
		} else if !e.applyLink(rel, op) {
			return false
		}
	}
	e.relCur = rel
	s := p.shell()
	e.snaps++
	s.era = e
	s.rel = rel
	s.n = e.n
	s.weight = e.weight
	s.nlive = int32(e.nlive)
	s.entries = int32(e.edgeLen)
	p.epoch++
	s.epoch = p.epoch
	p.swapIn(s)
	p.stats.Epochs++
	p.stats.DeltaEpochs++
	p.stats.PatchEntries += uint64(e.logLen - patch0)
	elapsed := time.Now().UnixNano() - t0
	p.stats.PublishNs += elapsed
	p.stats.DeltaNs += elapsed
	return true
}
