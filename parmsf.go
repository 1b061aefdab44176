// Package parmsf maintains a minimum spanning forest of a fully dynamic
// edge-weighted undirected graph, implementing Kopelowitz, Porat and
// Rosenmutter, "Improved Worst-Case Deterministic Parallel Dynamic Minimum
// Spanning Forest" (SPAA 2018).
//
// The default Forest composes the full pipeline of the paper: Frederickson
// degree reduction (Section 1.1) around the chunked Euler-tour / LSDS core
// structure (Sections 2-3, Theorem 1.2), and optionally the sparsification
// tree (Section 5, Theorem 1.1) for graphs with m >> n. With
// Options.Workers set the core runs its EREW PRAM driver (Section 3,
// Theorem 3.1) on a machine whose depth and work counters are available
// through PRAM(): one worker simulates the machine sequentially, and more
// workers additionally execute its kernels for real across a goroutine
// worker pool, where the batch updates InsertEdges/DeleteEdges preprocess
// whole batches in parallel.
//
// Typical use:
//
//	f, err := parmsf.New(n, parmsf.Options{}) // MustNew panics instead
//	if err != nil {
//		return err
//	}
//	f.Insert(u, v, w)
//	f.Delete(u, v)
//	connected := f.Connected(a, b)
//	total := f.Weight()
//
// # Concurrency
//
// The read and write planes are decoupled. After every applied batch the
// forest publishes an immutable epoch-versioned Snapshot (component ids,
// forest edge list, total weight); Connected, Weight, Size, Components and
// Edges answer from the current snapshot with lock-free reads, so any
// number of goroutines may query concurrently with updates — a reader
// never blocks on an in-flight batch, it observes the previous epoch until
// the batch publishes. Snapshot returns the whole view for multi-query
// consistency at one epoch.
//
// Mutators (Insert, Delete, InsertEdges, DeleteEdges) are serialized by an
// internal lock: concurrent callers are safe but apply one at a time. The
// single-edge mutators are one-element batches: every mutation takes the
// same commit path into the engine's batch pipeline. A mutator that changed
// the forest republishes the snapshot before returning — queries
// immediately observe its effect. Publication costs O(delta) per applied
// batch: a link merges two component labels and a cut relabels the smaller
// side it split off, while the O(n + forest size) rebuild runs only when a
// snapshot era's patch budget runs out. A batch publishes one epoch however
// many edges it carries; for streams of single-edge updates prefer Submit,
// which enqueues updates on a write-coalescing queue: a single drainer
// batches whatever has accumulated into the engine's batch entry points —
// amortizing engine work and publication across clients and bounding write
// latency by batch cadence — and each submission resolves its own Pending
// result once applied. Submit rejects a malformed update at once with the
// error the synchronous call would report. Flush waits for everything
// previously submitted.
package parmsf

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parmsf/internal/core"
	"parmsf/internal/faultinject"
	"parmsf/internal/ingest"
	"parmsf/internal/pram"
	"parmsf/internal/snapshot"
	"parmsf/internal/sparsify"
	"parmsf/internal/ternary"
)

// Weight is an edge weight. Only comparisons matter to the algorithm.
type Weight = int64

// MinWeight is the lowest admissible edge weight (weights at or below it
// are reserved by the degree-reduction gadget). Admissible weights also
// stay below math.MaxInt64, which the core engine reserves as its infinity
// sentinel.
const MinWeight = ternary.RingWeight + 1

// Common errors are declared in errors.go (the package error taxonomy).

// Snapshot is an immutable point-in-time view of the forest: a flat
// component-id array, the forest edge list, the total weight and an epoch
// counter, safe for concurrent use by any number of goroutines. Epochs are
// strictly monotone in publication order, one per applied batch that
// changed the forest. Release (optional) returns the snapshot's buffers to
// the publication pool; see the methods on the underlying type.
type Snapshot = snapshot.Snapshot

// Pending is the future of one submitted update: Wait (or Done/Err)
// resolves to the same error the synchronous entry point would have
// returned once the update's coalesced batch has applied.
type Pending = ingest.Future

// Options configures a Forest.
type Options struct {
	// MaxEdges caps the number of concurrently live edges (sizing the
	// degree-reduction gadget). Default 4n.
	MaxEdges int
	// Sparsify routes updates through the sparsification tree of Section
	// 5, making update cost depend on n rather than m. Worthwhile when the
	// graph is dense. A batch enters the tree at its lowest stored level
	// and propagates toward the root through the dependency pipeline,
	// where a node applies as soon as its children have drained into it
	// (node tasks run concurrently on the machine's goroutine pool when
	// Workers exceeds 1).
	Sparsify bool
	// Workers runs the core structure's EREW PRAM driver (Section 3) on a
	// machine with this many workers, whose depth and work counters are
	// exposed via PRAM(). 0 runs without a machine; 1 simulates the rounds
	// sequentially; k > 1 runs each round of the driver's kernels and the
	// batch-update preprocessing as a fork-join on a pool of k goroutines,
	// the pool Sparsify's node tasks also run on; negative selects
	// GOMAXPROCS. The cost counters are identical for every worker count;
	// only wall-clock time changes. The machine counts rounds without
	// checking EREW exclusivity; the tournament kernels whose rounds the
	// driver charges are checked in their own tests. Forests with workers
	// should be released with Close.
	Workers int
	// QueueDepth is the submission buffer of the write-coalescing ingest
	// queue behind Submit: producers block (backpressure) once this many
	// updates are waiting for the drainer. 0 selects the default (1024).
	QueueDepth int
	// MaxBatch caps how many queued updates one drained engine batch may
	// coalesce, bounding worst-case batch latency. 0 selects the default
	// (512).
	MaxBatch int
	// CoalesceCancel enables the ingest drainer's cancelling coalescer:
	// within one drained FIFO window, an insert of an edge immediately
	// followed (in that edge's own op order) by its delete annihilates —
	// neither reaches the engine, both Pending results resolve nil, and the
	// pair is never visible in any snapshot epoch. Raises effective
	// ops/batch under churn. A Flush is a barrier: no pair cancels across
	// it. Off by default because it is visible in two ways: IngestStats'
	// ops counter excludes cancelled updates (see IngestCancelled), and a
	// cancelled insert is assumed successful — if the edge was already
	// live, the uncoalesced stream would have reported ErrExists for the
	// insert and deleted the pre-existing edge, while the coalesced stream
	// reports success for both and keeps the pre-existing edge. (Malformed
	// updates never reach the coalescer: Submit rejects them.) Producers
	// that never blindly re-insert a live edge observe identical state and
	// results either way.
	CoalesceCancel bool
	// SnapshotRebaseEvery forces a full-sweep snapshot rebase every k
	// published epochs instead of the default capacity-driven schedule
	// (the incremental delta path rebases only when an era's ~n/8 patch
	// budget runs out, or when an update's forest delta cannot be
	// expressed incrementally). 1 disables the delta path entirely; 0
	// selects the default (tests and experiments exercising the
	// rebase/patch boundary set it).
	SnapshotRebaseEvery int
	// SubmitPolicy selects what Submit and SubmitBatch do when QueueDepth
	// updates are already waiting: block for space (SubmitBlock, the
	// default), reject immediately with ErrQueueFull (SubmitFail), or wait
	// up to SubmitTimeout and then reject (SubmitWait). With SubmitFail and
	// SubmitWait a stalled — or poisoned — drainer can no longer block
	// producers forever.
	SubmitPolicy SubmitPolicy
	// SubmitTimeout bounds a SubmitWait submission's wait for queue space.
	// Zero with SubmitWait degenerates to SubmitBlock.
	SubmitTimeout time.Duration
	// FlushTimeout bounds every Flush call; a Flush that exceeds it
	// returns ErrTimeout (the flushed updates remain queued and still
	// apply). Zero waits indefinitely.
	FlushTimeout time.Duration
	// AutoRecover rebuilds the forest from the live-edge journal
	// immediately after a mutator poisons it: the failed operation still
	// reports its ErrPoisoned (the failed batch is never applied), but the
	// forest is healthy again by the time that error is observed. Without
	// it, the forest stays poisoned until Recover is called.
	AutoRecover bool
}

// SubmitPolicy is the ingest queue's admission policy (Options.SubmitPolicy).
type SubmitPolicy int

const (
	// SubmitBlock blocks producers until queue space frees (backpressure).
	SubmitBlock SubmitPolicy = SubmitPolicy(ingest.SubmitBlock)
	// SubmitFail rejects immediately with ErrQueueFull when the queue is
	// full.
	SubmitFail SubmitPolicy = SubmitPolicy(ingest.SubmitFail)
	// SubmitWait waits up to Options.SubmitTimeout for space, then rejects
	// with ErrQueueFull.
	SubmitWait SubmitPolicy = SubmitPolicy(ingest.SubmitWait)
)

// FaultPoints returns the names of every registered fault-injection crash
// point compiled into the engine stack, sorted (see Forest.ArmFault).
func FaultPoints() []string { return faultinject.Points() }

// Forest is a dynamic minimum spanning forest over vertices 0..n-1.
// Queries are lock-free against the current snapshot and safe from any
// goroutine; mutators are internally serialized; Submit enqueues updates
// for the coalescing drainer. See the package comment's Concurrency
// section.
type Forest struct {
	n     int
	opt   Options // normalized at New; Recover rebuilds engines from it
	eng   engine
	mach  *pram.Machine
	ch    core.Charger     // batch kernels route through this
	spars *sparsify.Forest // non-nil when Options.Sparsify is set
	fault *faultinject.Injector

	mu       sync.Mutex // serializes mutators (engine + publication state)
	sc       commitScratch
	pub      *snapshot.Publisher
	dirty    bool // forest changed since the last published epoch
	dc       deltaCollector
	suppress bool // Recover's rebuild in progress: skip epoch publication

	// jour is the live-edge journal: the canonical (u<v) key and weight of
	// every edge currently in the graph, maintained by the API layer and
	// written only after an update's batch has committed — so whatever a
	// panic strands mid-batch is, by construction, not in the journal, and
	// Recover rebuilding from it gets exactly the state with the failed
	// batch rolled back. O(1) per op, allocation-free in steady state
	// (delete/reinsert churn reuses the map's buckets).
	jour map[[2]int]int64

	// poison is nil while healthy. The first panic a mutator's containment
	// recovers CASes in a *PoisonError; every mutator and submission then
	// fails fast on it until Recover clears it. Atomic so the ingest plane
	// can check admission without the mutator lock.
	poison atomic.Pointer[PoisonError]

	// q is the ingest queue behind Submit, created by New and closed by
	// Close; its drainer starts with the first accepted submission.
	q *ingest.Queue
}

// engine is what the commit path and publication call on the composed
// engine stack: the ternary wrapper, or the sparsification tree over
// ternary-wrapped nodes.
type engine interface {
	InsertEdges(items []ternary.BatchEdge) []error
	DeleteEdges(keys [][2]int) []error
	Weight() int64
	ForestEdges(f func(u, v int, w int64) bool)
	ExportComponents(comp []int32, upto int) bool
}

// New creates an empty forest over n vertices (n >= 2). Returns
// ErrTooFewVertices when n < 2.
func New(n int, opt Options) (*Forest, error) {
	if n < 2 {
		return nil, ErrTooFewVertices
	}
	if opt.MaxEdges == 0 {
		opt.MaxEdges = 4 * n
	}
	f := &Forest{n: n, opt: opt, fault: faultinject.New(), jour: make(map[[2]int]int64)}
	f.sc.validate, f.sc.canon = f.validateKernel, f.canonKernel
	if opt.Workers != 0 {
		f.mach = pram.NewParallel(opt.Workers)
	}
	if f.mach != nil {
		f.ch = core.PRAMCharger{M: f.mach}
	} else {
		f.ch = core.SeqCharger{}
	}
	f.buildEngine()
	// Wire the read plane: one publisher for the forest's whole lifetime —
	// it survives engine teardown in Recover, which is what keeps epochs
	// monotone across a poison/recover cycle.
	f.pub = snapshot.NewPublisher(n)
	f.pub.SetFault(f.fault)
	f.pub.SetRebaseEvery(opt.SnapshotRebaseEvery)
	// The queue's errors are the package's own sentinels (errors.go), so
	// futures and Flush results need no translation.
	f.q = ingest.NewWithConfig(&queueApplier{f: f}, ingest.Config{
		Depth:         opt.QueueDepth,
		MaxBatch:      opt.MaxBatch,
		Policy:        ingest.SubmitPolicy(opt.SubmitPolicy),
		SubmitTimeout: opt.SubmitTimeout,
		FlushTimeout:  opt.FlushTimeout,
		CancelPairs:   opt.CoalesceCancel,
	})
	return f, nil
}

// MustNew is New for static configurations known to be valid: it panics on
// error (tests, examples, package-level initialization).
func MustNew(n int, opt Options) *Forest {
	f, err := New(n, opt)
	if err != nil {
		panic(err)
	}
	return f
}

// buildEngine constructs the engine stack from f.opt and wires the
// snapshot hooks and the fault injector into every layer. Called once by
// New and again by Recover, which drops the poisoned engines and rebuilds
// on the same machine, publisher and injector.
//
// Whichever the composition, the top layer reports forest deltas (so no-op
// updates skip republication) and fires the epoch hook once per fully
// applied batch — past the sparsification pipeline barrier, past the
// ternary slot surgeries — at which point the engine is quiescent and a
// consistent snapshot can be built and swapped in.
func (f *Forest) buildEngine() {
	cfg := core.Config{Fault: f.fault}
	newTernary := func(n, maxEdges int, ch core.Charger) *ternary.Wrapper {
		tw := ternary.New(n, maxEdges, func(gn int) ternary.Engine { return core.NewMSF(gn, cfg, ch) })
		tw.SetFault(f.fault)
		return tw
	}
	if !f.opt.Sparsify {
		tw := newTernary(f.n, f.opt.MaxEdges, f.ch)
		tw.SetEvents(f.noteDelta)
		tw.SetCutSides(f.noteCutSide)
		tw.OnApplied = f.publishIfDirty
		f.eng = tw
		return
	}
	// Batches run through the pipelined scheduler: a node applies as soon
	// as its children have drained into it, with node tasks spawned on the
	// machine's pool when it has one (inline once it is closed). Section
	// 5.3 wiring: with a machine, every tree node runs the PRAM driver on a
	// private sequential simulator, so independent nodes can apply
	// concurrently with no shared counter state and no node task steps the
	// machine whose pool it runs on; the tree merges per-node depth (max)
	// and work (sum) through DepthFn/WorkFn, and absorbSpars folds those
	// totals back into the shared machine.
	sp := sparsify.New(f.n, func(localN, maxEdges int) sparsify.Engine {
		ch := core.Charger(core.SeqCharger{})
		if f.mach != nil {
			ch = core.PRAMCharger{M: pram.New(false)}
		}
		return newTernary(localN, maxEdges, ch)
	})
	sp.Pipeline = true
	if f.mach != nil {
		sp.DepthFn = func(e sparsify.Engine) int64 { return e.Machine().Time }
		sp.WorkFn = func(e sparsify.Engine) int64 { return e.Machine().Work }
		if f.mach.Workers() > 1 {
			// A one-worker machine would run each task inline anyway.
			sp.Spawn = f.mach.Spawn
		}
	}
	sp.Fault = f.fault
	sp.SetEvents(f.noteDelta)
	sp.SetCutSides(f.noteCutSide)
	sp.OnApplied = f.publishIfDirty
	f.eng, f.spars = sp, sp
}

// deltaCollector accumulates one applied update's forest mutations in
// engine event order, for the publisher's O(delta) path: links and cuts
// from the events callback, each cut's smaller-side vertex set from the
// cut-side callback. Collection caps keep pathological batches (bulk
// loads, giant components churning) from buffering unboundedly — an
// overflowed collection abandons the delta and the epoch publishes
// through the full sweep instead.
type deltaCollector struct {
	ops      []snapshot.DeltaOp
	sides    []int32
	overflow bool
}

const (
	maxDeltaOps   = 4096
	maxDeltaSides = 8192
)

func (dc *deltaCollector) reset() {
	dc.ops = dc.ops[:0]
	dc.sides = dc.sides[:0]
	dc.overflow = false
}

// noteDelta records one forest mutation (engine event callback). During
// batch application it may fire on a worker goroutine, always strictly
// before the batch entry point returns, which happens-before the
// publication hook's read.
func (f *Forest) noteDelta(u, v int, w int64, added bool) {
	f.dirty = true
	dc := &f.dc
	if dc.overflow {
		return
	}
	if len(dc.ops) >= maxDeltaOps {
		dc.overflow = true
		return
	}
	dc.ops = append(dc.ops, snapshot.DeltaOp{
		Del: !added, U: u, V: v, W: w, SideStart: -1, SideLen: -1,
	})
}

// noteCutSide records the smaller-side vertex set of the cut the engine
// just reported (cut-side callback, same goroutine contract as noteDelta):
// the side attaches to the latest recorded deletion. A deletion whose side
// never arrives — or arrives past the collection cap — keeps SideLen -1,
// which the publisher refuses, falling back to the sweep.
func (f *Forest) noteCutSide(side []int32) {
	dc := &f.dc
	if dc.overflow || len(dc.ops) == 0 {
		return
	}
	op := &dc.ops[len(dc.ops)-1]
	if !op.Del || op.SideLen >= 0 {
		return
	}
	if len(dc.sides)+len(side) > maxDeltaSides {
		dc.overflow = true
		return
	}
	op.SideStart = int32(len(dc.sides))
	dc.sides = append(dc.sides, side...)
	op.SideLen = int32(len(side))
}

// publishIfDirty is the engine's epoch hook: once per applied batch (a
// single-edge mutator is a one-element batch), with the mutator lock held
// by commit. Batches that did not change the forest (failed ops, pure
// non-tree churn cancellations) publish nothing — the current snapshot is
// still exact. A changed forest publishes through the O(delta) path when
// the collected mutations fit the current era, and falls back to the full
// sweep (which is also the rebase that restores delta capacity) when they
// do not.
func (f *Forest) publishIfDirty() {
	if f.suppress {
		// Recover's rebuild drives the whole journal through the engine's
		// load path; readers hold the pre-poison epoch until the rebuilt
		// forest publishes once, atomically, at the end.
		f.dirty = false
		f.dc.reset()
		return
	}
	if !f.dirty {
		f.dc.reset()
		return
	}
	f.dirty = false
	if f.dc.overflow || !f.pub.TryPublishDelta(f.dc.ops, f.dc.sides) {
		f.publish()
	}
	f.dc.reset()
}

// PublishStats reports the snapshot publisher's cumulative counters:
// epochs published, how many went through the O(delta) path versus a full
// rebase sweep, the label-patch entries written, and the wall time spent
// inside publication. Mutator side only (not synchronized with concurrent
// updates).
func (f *Forest) PublishStats() snapshot.Stats { return f.pub.Stats() }

// publish builds the next snapshot from the engine on pooled buffers and
// swaps it in with one atomic pointer store. O(n + forest size); amortized
// across every update a batch coalesced.
//
// The component array comes from the engine's export sweep: one tour-root
// sweep through the core structure (reusing the insert-classification
// kernel), which every composition buildEngine builds provides, so its
// result is always true.
func (f *Forest) publish() {
	b := f.pub.Begin(f.n)
	f.eng.ExportComponents(b.Comp(f.n), f.n)
	f.eng.ForestEdges(func(u, v int, w int64) bool {
		b.AppendEdge(u, v, w)
		return true
	})
	b.SetWeight(f.eng.Weight())
	f.pub.Publish(b)
}

// absorbSpars snapshots the sparsification tree's accumulated Section 5.3
// depth/work and returns a closure merging the update's delta into the
// shared machine, so PRAM() keeps reporting the whole pipeline's cost —
// identically for every worker count.
func (f *Forest) absorbSpars() func() {
	if f.spars == nil || f.mach == nil {
		return func() {}
	}
	d0, w0 := f.spars.ParDepth, f.spars.ParWork
	return func() { f.mach.Absorb(f.spars.ParDepth-d0, f.spars.ParWork-w0) }
}

// N returns the vertex count.
func (f *Forest) N() int { return f.n }

// poisonWith mints (or returns the already-installed) PoisonError for a
// panic recovered at stage. Its only caller is commit's containment, under
// the mutator lock; the install is still a compare-and-swap because readers
// load the poison state without that lock. First panic wins; later ones
// report the original.
func (f *Forest) poisonWith(stage string, r any) *PoisonError {
	pe := &PoisonError{Stage: stage, Value: r, Stack: debug.Stack()}
	if !f.poison.CompareAndSwap(nil, pe) {
		pe = f.poison.Load()
	}
	return pe
}

// Poisoned returns the forest's poison state: nil while healthy, else the
// *PoisonError carrying the panic that poisoned it. Safe from any
// goroutine.
func (f *Forest) Poisoned() *PoisonError { return f.poison.Load() }

// ArmFault arms deterministic crash points on this forest's fault injector
// ("point" or "point:N" comma-separated specs; see FaultPoints for the
// registry). Points are one-shot: each fires once and disarms. Testing
// hook: a forest nobody arms pays one atomic load per crash site.
func (f *Forest) ArmFault(spec string) error { return f.fault.ArmSpec(spec) }

// Close drains and stops the ingest queue (every accepted Submit applies
// before Close returns) and releases the goroutine pool behind
// Options.Workers, which runs both the PRAM rounds and, with Sparsify, the
// pipeline's node tasks. The forest stays usable for synchronous calls
// afterwards (kernels run sequentially; batch node tasks run inline);
// Flush and every well-formed Submit return ErrClosed. Safe on any forest
// and safe to call twice.
func (f *Forest) Close() {
	// Drain before taking the mutator lock: the drainer's batch
	// applications acquire f.mu.
	f.q.Close()
	// Release the pool under the mutator lock, so a concurrent synchronous
	// mutator finishes its batch before the pool disappears out from under
	// it.
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mach != nil {
		f.mach.Close()
	}
}

// Recover rebuilds a poisoned forest from the live-edge journal: the
// poisoned engine stack is torn down and a fresh one is constructed on the
// same worker machinery, then the journal — exactly the committed state,
// with the failed batch rolled back — reloads through the bulk
// constructor's path (static filter-Kruskal classification + engine bulk
// load, or the sparsification tree's bulk node routing). The snapshot
// publisher is retained, so the recovered forest publishes one rebased
// epoch after the last pre-poison epoch — readers observe the poison
// window as an ordinary quiet period followed by one (possibly large)
// delta, never a backward or inconsistent view — and the ingest plane
// resumes admitting submissions.
//
// No-op on a healthy forest. If the rebuild itself fails, the forest stays
// poisoned (with the original PoisonError) and the rebuild's error is
// returned. Deterministic: the recovered forest is bit-identical (edges,
// weight, components) to one that never applied the failed batch.
func (f *Forest) Recover() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.poison.Load() == nil {
		return nil
	}
	f.buildEngine()
	f.dirty = false
	f.dc.reset()
	edges := make([]Edge, 0, len(f.jour))
	for k, w := range f.jour {
		edges = append(edges, Edge{U: k[0], V: k[1], W: w})
	}
	// The journal is a set; load in ascending (W, U, V) so the rebuild's
	// tie-breaks match the incremental path's canonical order.
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.W, b.W), cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	if err := f.reload(edges); err != nil {
		return err
	}
	f.poison.Store(nil)
	f.publish()
	return nil
}

// reload drives the journal's edge set through the bulk load path with
// publication suppressed, containing any panic the rebuild itself throws
// (an armed one-shot fault point cannot re-trip, but a real persistent
// fault can — the forest then stays poisoned rather than looping).
func (f *Forest) reload(edges []Edge) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parmsf: recovery rebuild panicked: %v", r)
		}
	}()
	f.suppress = true
	defer func() { f.suppress = false }()
	defer f.absorbSpars()()
	errs := make([]error, len(edges))
	f.loadAccepted(edges, errs)
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("parmsf: recovery rebuild rejected a journaled edge: %w", e)
		}
	}
	return nil
}

// Snapshot returns the current epoch's immutable view of the forest:
// lock-free, never blocking on in-flight updates, and safe to query from
// any goroutine. Use it when several queries must observe one consistent
// epoch. Calling Release when done recycles the snapshot's buffers
// (optional — an unreleased snapshot stays valid and is garbage collected
// normally).
func (f *Forest) Snapshot() *Snapshot { return f.pub.Acquire() }

// Connected reports whether u and v are in the same tree, per the current
// snapshot, and false when either vertex is outside [0, n). Lock-free;
// never blocks on an in-flight update.
func (f *Forest) Connected(u, v int) bool {
	s := f.pub.Acquire()
	ok := s.Connected(u, v)
	s.Release()
	return ok
}

// Weight returns the total weight of the forest, per the current snapshot.
func (f *Forest) Weight() Weight {
	s := f.pub.Acquire()
	w := s.Weight()
	s.Release()
	return w
}

// Size returns the number of forest edges, per the current snapshot.
func (f *Forest) Size() int {
	s := f.pub.Acquire()
	k := s.Size()
	s.Release()
	return k
}

// Edges calls fn for every forest edge of the current snapshot, stopping
// early on false. The iteration never observes a partially applied batch.
func (f *Forest) Edges(fn func(u, v int, w Weight) bool) {
	s := f.pub.Acquire()
	s.Edges(fn)
	s.Release()
}

// Components returns the number of connected components (isolated vertices
// count as components), per the current snapshot.
func (f *Forest) Components() int {
	s := f.pub.Acquire()
	c := s.Components()
	s.Release()
	return c
}

// Update is one asynchronous edge update for Submit: an insertion of
// (U, V) with weight W, or — when Delete is set — a deletion of (U, V).
type Update = ingest.Op

// Submit enqueues one update on the write-coalescing ingest queue and
// returns its Pending result. Safe for any number of concurrent producers;
// ops apply in submission order, coalesced into engine batches by a single
// drainer (sized by Options.QueueDepth / Options.MaxBatch), each batch
// publishing one snapshot epoch. Submit blocks only when QueueDepth
// updates are already waiting (backpressure). A malformed update resolves
// at once, without entering the queue, with the error commit reports for
// it: ErrBadEdge for an insert (see Insert), ErrNotFound for a delete.
// After Close a well-formed update resolves immediately with ErrClosed.
func (f *Forest) Submit(up Update) *Pending {
	if pe := f.poison.Load(); pe != nil {
		return ingest.NewFailed(pe)
	}
	if err := updateErr(f.n, up); err != nil {
		return ingest.NewFailed(err)
	}
	return f.q.Submit(up)
}

// SubmitBatch enqueues ups as one unit on the ingest queue and returns one
// Pending per update. The whole batch occupies a single queue slot, so a
// producer with a ready-made batch pays one send (and one backpressure
// check) instead of len(ups); the updates apply in slice order at the
// batch's FIFO position and coalesce with neighboring submissions exactly
// as the equivalent Submit sequence would, raising the drainer's
// ops-per-engine-batch coalescing factor (see IngestStats). Malformed
// updates resolve at once, as with Submit, and the rest enqueue. Empty
// input returns nil; after Close every well-formed update's Pending
// resolves immediately with ErrClosed.
func (f *Forest) SubmitBatch(ups []Update) []*Pending {
	if len(ups) == 0 {
		return nil
	}
	if pe := f.poison.Load(); pe != nil {
		ps := make([]*Pending, len(ups))
		for i := range ps {
			ps[i] = ingest.NewFailed(pe)
		}
		return ps
	}
	// The queue owns what it is handed, so copy the well-formed updates.
	ops := make([]Update, 0, len(ups))
	for _, up := range ups {
		if updateErr(f.n, up) == nil {
			ops = append(ops, up)
		}
	}
	futs := f.q.SubmitBatch(ops)
	if len(ops) == len(ups) {
		return futs
	}
	ps := make([]*Pending, len(ups))
	for i, up := range ups {
		if err := updateErr(f.n, up); err != nil {
			ps[i] = ingest.NewFailed(err)
		} else {
			ps[i], futs = futs[0], futs[1:]
		}
	}
	return ps
}

// Flush blocks until every update submitted before the call has applied
// (and its epoch published). Returns ErrClosed after Close; a forest that
// never submitted anything flushes trivially (its drainer never started).
func (f *Forest) Flush() error { return f.q.Flush() }

// IngestStats reports the coalescing drainer's counters: updates applied
// through the queue and the engine batches they collapsed into (their
// ratio is the coalescing factor). Zeros when Submit was never used; after
// Close it keeps reporting the totals the queue drained to. With
// Options.CoalesceCancel, updates annihilated by pair cancellation are not
// counted here — see IngestCancelled. Malformed submissions, which never
// enter the queue, are not counted at all.
func (f *Forest) IngestStats() (ops, batches uint64) {
	st := f.q.Stats()
	return st.Ops, st.Batches
}

// IngestCancelled reports how many submitted updates the drainer's
// cancelling coalescer annihilated (each cancelled insert+delete pair
// contributes 2; see Options.CoalesceCancel). Always 0 without
// CoalesceCancel. The sum of IngestCancelled and IngestStats' ops counter
// is the number of well-formed submitted updates that have resolved.
func (f *Forest) IngestCancelled() uint64 { return f.q.Stats().Cancelled }

// Epoch returns the current snapshot epoch: strictly monotone, advancing
// once per applied batch that changed the forest. Safe from any
// goroutine; the cluster layer uses it to detect shard staleness without
// materializing a full snapshot.
func (f *Forest) Epoch() uint64 {
	s := f.pub.Acquire()
	e := s.Epoch()
	s.Release()
	return e
}

// PRAM returns the EREW machine when Options.Workers was set (depth = Time,
// work = Work), or nil.
func (f *Forest) PRAM() *pram.Machine { return f.mach }
