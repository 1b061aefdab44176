package main

import (
	"sync"
	"sync/atomic"
	"time"

	"parmsf"
	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/snapshot"
	"parmsf/internal/sparsify"
	"parmsf/internal/ternary"
)

// This file composes the engine layers behind parmsf.Forest from their
// exported constructors, the way parmsf's buildEngine and its commit path
// do, with a timing decorator on every layer. Each decorator embeds the
// concrete layer type, so every optional interface a composer
// type-asserts (ternary.BatchEngine, the bulk loaders, SetCutSides,
// ExportComponents) still resolves through the promoted methods.

// stack is one composed forest: commit path, engine layers, publisher.
type stack struct {
	n     int
	tr    *tracer
	mach  *pram.Machine
	ch    core.Charger
	tasks *sparsify.TaskPool
	top   topEngine
	spars *sparsifyLayer // non-nil with Options.Sparsify
	pub   *snapshot.Publisher
	jour  map[[2]int]int64

	// Open spans, read by the layers below as their parents. Node tasks
	// read them on worker goroutines; the spawn that starts a task orders
	// the write before the read.
	req        int64
	commitSpan int32
	engSpan    int32

	// Delta collection for the publisher, as parmsf collects it.
	dirty    bool
	deltas   []snapshot.DeltaOp
	sides    []int32
	overflow bool
	forest   map[[2]int]bool // current forest edges, from the engine events

	coresMu sync.Mutex
	cores   []*coreLayer

	coreNs    atomic.Int64 // wall time inside core calls
	gadgetOps atomic.Int64 // gadget-level ops handed to core
}

// topEngine is what the commit path calls on the outermost engine layer.
type topEngine interface {
	InsertEdges(items []batch.Edge) []error
	DeleteEdges(keys [][2]int) []error
	Weight() int64
	ForestEdges(f func(u, v int, w int64) bool)
	ExportComponents(comp []int32, upto int) bool
}

// coreLayer times the core structure's batch entry points.
type coreLayer struct {
	*core.MSF
	s     *stack
	owner *ternaryLayer
}

func (c *coreLayer) ApplyBatch(ops []core.BatchOp) []error {
	id := c.s.tr.open("core", c.owner.open, c.s.req)
	t0 := time.Now()
	errs := c.MSF.ApplyBatch(ops)
	c.s.coreNs.Add(int64(time.Since(t0)))
	c.s.gadgetOps.Add(int64(len(ops)))
	c.s.tr.close(id)
	return errs
}

func (c *coreLayer) BulkLoad(ops []core.BatchOp, tree []bool) []error {
	id := c.s.tr.open("core.bulk", c.owner.open, c.s.req)
	errs := c.MSF.BulkLoad(ops, tree)
	c.s.tr.close(id)
	return errs
}

// ternaryLayer times the degree-reduction gadget's batch entry points.
type ternaryLayer struct {
	*ternary.Wrapper
	s    *stack
	open int32 // span of the call in progress on this wrapper
}

func (t *ternaryLayer) parent() int32 {
	if t.s.spars != nil {
		return t.s.engSpan
	}
	return t.s.commitSpan
}

func (t *ternaryLayer) InsertEdges(items []batch.Edge) []error {
	t.open = t.s.tr.open("ternary", t.parent(), t.s.req)
	if t.s.spars == nil {
		t.s.engSpan = t.open
	}
	errs := t.Wrapper.InsertEdges(items)
	t.s.tr.close(t.open)
	return errs
}

func (t *ternaryLayer) DeleteEdges(keys [][2]int) []error {
	t.open = t.s.tr.open("ternary", t.parent(), t.s.req)
	if t.s.spars == nil {
		t.s.engSpan = t.open
	}
	errs := t.Wrapper.DeleteEdges(keys)
	t.s.tr.close(t.open)
	return errs
}

func (t *ternaryLayer) BulkLoad(items []batch.Edge, tree []bool) []error {
	t.open = t.s.tr.open("ternary.bulk", t.parent(), t.s.req)
	if t.s.spars == nil {
		t.s.engSpan = t.open
	}
	errs := t.Wrapper.BulkLoad(items, tree)
	t.s.tr.close(t.open)
	return errs
}

// sparsifyLayer times the sparsification tree's batch entry points.
type sparsifyLayer struct {
	*sparsify.Forest
	s *stack
}

func (l *sparsifyLayer) InsertEdges(items []batch.Edge) []error {
	l.s.engSpan = l.s.tr.open("sparsify", l.s.commitSpan, l.s.req)
	errs := l.Forest.InsertEdges(items)
	l.s.tr.close(l.s.engSpan)
	return errs
}

func (l *sparsifyLayer) DeleteEdges(keys [][2]int) []error {
	l.s.engSpan = l.s.tr.open("sparsify", l.s.commitSpan, l.s.req)
	errs := l.Forest.DeleteEdges(keys)
	l.s.tr.close(l.s.engSpan)
	return errs
}

// newStack composes an empty forest over n vertices for opt, as parmsf.New
// does. Only the options the workloads use are mirrored: MaxEdges,
// Sparsify and Workers. Release it with close.
func newStack(n int, opt parmsf.Options, tr *tracer) *stack {
	if opt.MaxEdges == 0 {
		opt.MaxEdges = 4 * n
	}
	s := &stack{n: n, tr: tr, jour: make(map[[2]int]int64), forest: make(map[[2]int]bool),
		commitSpan: -1, engSpan: -1}
	if opt.Workers != 0 {
		s.mach = pram.NewParallel(opt.Workers)
		s.ch = core.PRAMCharger{M: s.mach}
	} else {
		s.ch = core.SeqCharger{}
	}
	if opt.Sparsify && s.mach != nil {
		s.tasks = sparsify.NewTaskPool(s.mach.Workers())
	}
	if opt.Sparsify {
		sp := sparsify.New(n, func(localN, maxEdges int) sparsify.Engine {
			ch := core.Charger(core.SeqCharger{})
			if s.mach != nil {
				// Section 5.3 wiring: a private sequential simulator per node.
				ch = core.PRAMCharger{M: pram.New(false)}
			}
			return s.newTernary(localN, maxEdges, ch)
		})
		if s.mach != nil {
			sp.DepthFn = func(e sparsify.Engine) int64 { return e.(*ternaryLayer).Gadget().(*coreLayer).Machine().Time }
			sp.WorkFn = func(e sparsify.Engine) int64 { return e.(*ternaryLayer).Gadget().(*coreLayer).Machine().Work }
			sp.Exec = func(tasks int, run func(t int)) { s.mach.Run(tasks, run) }
			sp.Pipeline = true
			sp.Spawn = s.tasks.Spawn
		}
		s.spars = &sparsifyLayer{Forest: sp, s: s}
		sp.SetEvents(s.noteDelta)
		sp.SetCutSides(s.noteCutSide)
		sp.OnApplied = s.publishIfDirty
		s.top = s.spars
	} else {
		tl := s.newTernary(n, opt.MaxEdges, s.ch)
		tl.SetEvents(s.noteDelta)
		tl.SetCutSides(s.noteCutSide)
		tl.OnApplied = s.publishIfDirty
		s.top = tl
	}
	s.pub = snapshot.NewPublisher(n)
	return s
}

func (s *stack) newTernary(n, maxEdges int, ch core.Charger) *ternaryLayer {
	var c *coreLayer
	tw := ternary.New(n, maxEdges, func(gn int) ternary.Engine {
		c = &coreLayer{MSF: core.NewMSF(gn, core.Config{}, ch), s: s}
		return c
	})
	tl := &ternaryLayer{Wrapper: tw, s: s, open: -1}
	c.owner = tl
	s.coresMu.Lock()
	s.cores = append(s.cores, c)
	s.coresMu.Unlock()
	return tl
}

// close releases the worker pools.
func (s *stack) close() {
	if s.mach != nil {
		s.mach.Close()
	}
	if s.tasks != nil {
		s.tasks.Close()
		s.spars.Spawn = nil
	}
}

// coreStats sums the structural counters of every core instance the stack
// ever created (sparsification nodes come and go).
func (s *stack) coreStats() core.Stats {
	s.coresMu.Lock()
	defer s.coresMu.Unlock()
	var t core.Stats
	for _, c := range s.cores {
		addCoreStats(&t, c.Store().Stats())
	}
	return t
}

// addCoreStats adds the counters the layer metrics use.
func addCoreStats(t *core.Stats, st core.Stats) {
	t.MWRQueries += st.MWRQueries
	t.ChunkSplits += st.ChunkSplits
	t.ChunkMerges += st.ChunkMerges
	t.RowRebuilds += st.RowRebuilds
}

func (s *stack) noteDelta(u, v int, w int64, added bool) {
	s.dirty = true
	if added {
		s.forest[key(u, v)] = true
	} else {
		delete(s.forest, key(u, v))
	}
	if s.overflow {
		return
	}
	if len(s.deltas) >= 4096 {
		s.overflow = true
		return
	}
	s.deltas = append(s.deltas, snapshot.DeltaOp{Del: !added, U: u, V: v, W: w, SideStart: -1, SideLen: -1})
}

func (s *stack) noteCutSide(side []int32) {
	if s.overflow || len(s.deltas) == 0 {
		return
	}
	d := &s.deltas[len(s.deltas)-1]
	if !d.Del || d.SideLen >= 0 {
		return
	}
	if len(s.sides)+len(side) > 8192 {
		s.overflow = true
		return
	}
	d.SideStart = int32(len(s.sides))
	s.sides = append(s.sides, side...)
	d.SideLen = int32(len(side))
}

// publishIfDirty is the epoch hook: the O(delta) path when the collected
// mutations fit, else a full rebase sweep.
func (s *stack) publishIfDirty() {
	if s.dirty {
		id := s.tr.open("snapshot.publish", s.engSpan, s.req)
		s.dirty = false
		if s.overflow || !s.pub.TryPublishDelta(s.deltas, s.sides) {
			b := s.pub.Begin(s.n)
			if !s.top.ExportComponents(b.Comp(s.n), s.n) {
				panic("perfbench: composed engine cannot export components")
			}
			s.top.ForestEdges(func(u, v int, w int64) bool {
				b.AppendEdge(u, v, w)
				return true
			})
			b.SetWeight(s.top.Weight())
			s.pub.Publish(b)
		}
		s.tr.close(id)
	}
	s.deltas, s.sides, s.overflow = s.deltas[:0], s.sides[:0], false
}

// load bulk-loads the base edge set as parmsf.Build does: sorted through
// the sparsification tree, or classified by Kruskal and handed to the
// ternary bulk loader (tree edges ascending, then the rest in input order).
func (s *stack) load(base []parmsf.Edge) {
	s.req = -1
	s.commitSpan = s.tr.open("parmsf.build", -1, -1)
	defer func() { s.tr.close(s.commitSpan) }()
	if s.spars != nil {
		items := make([]batch.Item, len(base))
		for i, e := range base {
			items[i] = batch.Item{Key: e.W, A: e.U, B: e.V, Idx: i}
		}
		batch.Sort(s.mach, items)
		bes := make([]batch.Edge, len(items))
		for i, it := range items {
			bes[i] = batch.Edge{U: it.A, V: it.B, W: it.Key}
		}
		mustNil(s.spars.InsertEdges(bes))
	} else {
		tree := make(map[parmsf.Edge]bool)
		var bes []batch.Edge
		var flags []bool
		for _, e := range kruskal(s.n, base).edges {
			tree[e] = true
			bes = append(bes, batch.Edge{U: e.U, V: e.V, W: e.W})
			flags = append(flags, true)
		}
		for _, e := range base {
			k := key(e.U, e.V)
			if !tree[parmsf.Edge{U: k[0], V: k[1], W: e.W}] {
				bes = append(bes, batch.Edge{U: e.U, V: e.V, W: e.W})
				flags = append(flags, false)
			}
		}
		mustNil(s.top.(*ternaryLayer).BulkLoad(bes, flags))
	}
	for _, e := range base {
		s.jour[key(e.U, e.V)] = e.W
	}
}

func mustNil(errs []error) {
	for _, err := range errs {
		if err != nil {
			panic("perfbench: composed load rejected a base edge: " + err.Error())
		}
	}
}

// window is one engine batch: the ops of one InsertEdges or DeleteEdges
// call (one same-kind run of a drained ingest window) on one forest.
type window struct {
	forest int
	del    bool
	ops    []op
	load   bool // part of the base load, not measured
}

// winStat is what the commit path observed for one window.
type winStat struct {
	wall   int64 // commit span, ns
	coreNs int64 // inside core, ns
	class  string
	ops    int
}

// apply runs one window through the commit path, mirroring parmsf's
// InsertEdges/DeleteEdges: validation kernel, weight sort, engine batch,
// journal. Any per-op error is returned.
func (s *stack) apply(w window, req int64) (winStat, error) {
	s.req = req
	s.commitSpan = s.tr.open("parmsf.commit", -1, req)
	t0 := time.Now()
	core0 := s.coreNs.Load()
	commit := s.insertEdges
	if w.del {
		commit = s.deleteEdges
	}
	class, err := commit(w.ops)
	st := winStat{wall: int64(time.Since(t0)), coreNs: s.coreNs.Load() - core0, class: class, ops: len(w.ops)}
	s.tr.close(s.commitSpan)
	return st, err
}

// insertEdges returns the window's class, "insert", or "insert-nontree"
// when no inserted edge joined the forest, and the last per-op error.
func (s *stack) insertEdges(ops []op) (class string, err error) {
	n := s.n
	bad := make([]bool, len(ops))
	s.ch.ParDo(len(ops), func(i int) {
		o := ops[i]
		if o.U < 0 || o.U >= n || o.V < 0 || o.V >= n || o.U == o.V || o.W < parmsf.MinWeight {
			bad[i] = true
		}
	})
	items := make([]batch.Item, 0, len(ops))
	for i, o := range ops {
		if bad[i] {
			err = parmsf.ErrBadEdge
			continue
		}
		items = append(items, batch.Item{Key: o.W, A: o.U, B: o.V, Idx: i})
	}
	sid := s.tr.open("batch.sort", s.commitSpan, s.req)
	batch.Sort(s.mach, items)
	s.tr.close(sid)
	bes := make([]batch.Edge, len(items))
	for i, it := range items {
		bes[i] = batch.Edge{U: it.A, V: it.B, W: it.Key}
	}
	for i, e := range s.top.InsertEdges(bes) {
		if e != nil {
			err = e
			continue
		}
		s.jour[key(items[i].A, items[i].B)] = items[i].Key
	}
	for _, o := range ops {
		if s.forest[key(o.U, o.V)] {
			return "insert", err
		}
	}
	return "insert-nontree", err
}

// deleteEdges returns the window's class, "delete-tree" when every key was
// a forest edge, "delete-nontree" when none was, "delete-mixed" otherwise,
// and the last per-op error.
func (s *stack) deleteEdges(ops []op) (class string, err error) {
	canon := make([][2]int, len(ops))
	s.ch.ParDo(len(ops), func(i int) { canon[i] = key(ops[i].U, ops[i].V) })
	tree := 0
	for _, k := range canon {
		if s.forest[k] {
			tree++
		}
	}
	for _, e := range s.top.DeleteEdges(canon) {
		if e != nil {
			err = e
		}
	}
	for _, k := range canon {
		delete(s.jour, k)
	}
	switch tree {
	case len(canon):
		return "delete-tree", err
	case 0:
		return "delete-nontree", err
	}
	return "delete-mixed", err
}

// answer reads the stack's current snapshot.
func (s *stack) answer() answer {
	snap := s.pub.Acquire()
	defer snap.Release()
	return answer{weight: snap.Weight(), size: snap.Size(), components: snap.Components(), edges: collect(snap.Edges)}
}
