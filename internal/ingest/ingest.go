// Package ingest implements the write-coalescing submission queue of the
// concurrent MSF plane: many goroutines enqueue edge updates, singly or as
// batches (multi-producer), one drainer goroutine dequeues them
// (single-consumer) and coalesces maximal same-kind runs into the engine's
// existing batch entry points, amortizing per-batch engine work — one
// classify round, one aggregate flush, one snapshot publication — across
// every client whose op landed in the run. Each submission returns a
// Future per op resolving to the op's individual error once its batch
// applies, so callers get per-op results with batch-level cost.
//
// A queue entry is a submission (its ops and their futures; Submit is a
// one-op submission) or a flush marker. The drainer starts with the first
// accepted submission, flattens each scooped window in FIFO order, and
// applies every stretch between flush markers as same-kind runs.
//
// Ordering: the queue is FIFO. Ops apply in submission order (two ops from
// one goroutine apply in their Submit order; ops racing from different
// goroutines apply in their arrival order), so a producer's own
// insert-then-delete sequences behave exactly as the synchronous API.
// Write latency is bounded by batch cadence: the drainer never waits to
// fill a batch — it applies whatever has accumulated the moment the engine
// is free, up to MaxBatch ops at a time.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The queue's lifecycle and admission errors. parmsf exports these values
// as its own sentinels, so futures and Flush results carry the public
// errors directly, with no translation layer between the queue and its
// callers; their messages are parmsf's.
var (
	// ErrClosed reports a Submit or Flush on a closed queue.
	ErrClosed = errors.New("parmsf: forest closed")
	// ErrFull reports a Submit rejected by the Fail admission policy (or a
	// Wait policy that timed out): Depth ops were already queued and the
	// submission was not accepted.
	ErrFull = errors.New("parmsf: ingest queue full")
	// ErrFlushTimeout reports a Flush that exceeded Config.FlushTimeout;
	// the flushed ops remain queued and will still apply.
	ErrFlushTimeout = errors.New("parmsf: deadline exceeded")
)

// SubmitPolicy selects what Submit does when the queue buffer is full.
type SubmitPolicy int

const (
	// SubmitBlock waits for space (backpressure; the default).
	SubmitBlock SubmitPolicy = iota
	// SubmitFail rejects immediately with ErrFull.
	SubmitFail
	// SubmitWait waits up to Config.SubmitTimeout for space, then rejects
	// with ErrFull. A zero timeout degenerates to SubmitBlock.
	SubmitWait
)

// Config parameterizes NewWithConfig. The zero value selects every default.
type Config struct {
	// Depth is the submission channel's buffer: the backpressure bound at
	// which the admission policy engages. < 1 selects 1024.
	Depth int
	// MaxBatch caps how many ops one drained engine batch may coalesce.
	// < 1 selects 512.
	MaxBatch int
	// Policy is the admission policy for full-queue submissions.
	Policy SubmitPolicy
	// SubmitTimeout bounds a SubmitWait submission's wait for space.
	SubmitTimeout time.Duration
	// FlushTimeout bounds every Flush call; 0 waits indefinitely.
	FlushTimeout time.Duration
	// CancelPairs enables the drainer's cancelling coalescer: within one
	// scooped FIFO window, an insert of edge (U, V) immediately followed —
	// in that edge's own op order — by a delete of the same edge is
	// annihilated: neither op reaches the engine and both futures resolve
	// nil. Per-edge order is preserved (only adjacent insert+delete pairs
	// of one edge cancel; everything else applies in FIFO position), a
	// pair separated by any other op on the same edge never cancels, and
	// a flush marker is a barrier: no pair spans a Flush.
	//
	// Semantics: cancellation assumes the insert would have succeeded, so
	// the embedder should enqueue only well-formed ops (parmsf rejects a
	// malformed update at Submit). If the edge was already live when the
	// window drained (the uncoalesced stream would report ErrExists for
	// the insert and then delete the pre-existing edge), the coalesced
	// stream instead reports success for both ops and leaves the
	// pre-existing edge in place. Producers that keep their per-edge
	// streams consistent — never blindly re-inserting a live edge —
	// observe identical state and results either way. A cancelled pair is
	// also never visible in any snapshot epoch, where the uncoalesced
	// stream might have published a transient epoch containing the edge.
	CancelPairs bool
}

// Op is one edge update: an insertion of (U, V) with weight W, or — when
// Delete is set — a deletion of edge (U, V).
type Op struct {
	Delete bool
	U, V   int
	W      int64
}

// Future resolves to one submitted op's result once its batch has applied.
type Future struct {
	done chan struct{}
	err  error
}

// Wait blocks until the op has applied and returns its error (nil on
// success; the same error the synchronous entry point would have returned,
// or ErrClosed when the queue was closed before the op was accepted).
func (f *Future) Wait() error {
	<-f.done
	return f.err
}

// Done returns a channel closed when the op has applied.
func (f *Future) Done() <-chan struct{} { return f.done }

// Err returns the op's error; call only after Wait or Done.
func (f *Future) Err() error { return f.err }

// NewFailed returns an already-resolved Future carrying err (for callers
// that must reject a submission without reaching a queue).
func NewFailed(err error) *Future {
	f := &Future{done: make(chan struct{}), err: err}
	close(f.done)
	return f
}

// Applier is the drainer's sink: the batch entry points of the engine
// being fed. Calls arrive on the single drainer goroutine, one at a time.
// The returned slice has one error slot per op (nil on success) or is nil
// when every op succeeded.
type Applier interface {
	ApplyInserts(ops []Op) []error
	ApplyDeletes(ops []Op) []error
}

// Stats is a point-in-time counter snapshot of a queue's drainer. Ops
// counts ops that reached the engine; Cancelled counts ops annihilated by
// the CancelPairs coalescer (each cancelled pair contributes 2). Their sum
// is the number of submitted ops that have resolved.
type Stats struct {
	Ops       uint64 // ops applied through the queue
	Batches   uint64 // engine batches those ops coalesced into
	Cancelled uint64 // ops annihilated by pair cancellation (never applied)
}

// item is one queue entry: a submission (ops with one future each) or, when
// flush is non-nil, a flush marker.
type item struct {
	ops   []Op // queue-owned until every future resolves
	futs  []*Future
	flush chan struct{}
}

// unit is everything one Submit allocates besides its done channel: the
// future, the op, and the one-element slices its queue entry carries.
type unit struct {
	fut  Future
	op   [1]Op
	futs [1]*Future
}

// Queue is the MPSC submission queue. Create with NewWithConfig, release
// with Close.
type Queue struct {
	ch       chan item
	maxBatch int
	applier  Applier

	policy        SubmitPolicy
	submitTimeout time.Duration
	flushTimeout  time.Duration

	mu     sync.RWMutex // closed flag vs in-flight Submit/Flush sends
	closed bool

	start   sync.Once     // starts the drainer with the first accepted submission
	started atomic.Bool   // the drainer has started (Flush of an idle queue is a no-op)
	drained chan struct{} // closed when the drainer has exited (or never started)

	ops       atomic.Uint64
	batches   atomic.Uint64
	cancelled atomic.Uint64

	// Drainer-local buffers, reused across windows: the scooped entries and
	// their ops and futures flattened in FIFO order.
	window   []item
	flatOps  []Op
	flatFuts []*Future

	cancel bool           // Config.CancelPairs
	skip   []bool         // per-op cancellation marks for one stretch
	keyst  map[[2]int]int // per-edge coalescer state within one stretch
}

// NewWithConfig returns a queue feeding applier, parameterized by cfg. Its
// drainer goroutine starts with the first accepted submission.
func NewWithConfig(applier Applier, cfg Config) *Queue {
	if cfg.Depth < 1 {
		cfg.Depth = 1024
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 512
	}
	if cfg.Policy == SubmitWait && cfg.SubmitTimeout <= 0 {
		cfg.Policy = SubmitBlock
	}
	return &Queue{
		ch:            make(chan item, cfg.Depth),
		maxBatch:      cfg.MaxBatch,
		applier:       applier,
		policy:        cfg.Policy,
		submitTimeout: cfg.SubmitTimeout,
		flushTimeout:  cfg.FlushTimeout,
		drained:       make(chan struct{}),
		cancel:        cfg.CancelPairs,
	}
}

// Submit enqueues one op and returns its Future: a one-op SubmitBatch whose
// future, op and entry slices share one allocation. Safe for concurrent
// use. A full queue engages the admission policy: block for space
// (default), reject immediately, or wait up to the configured timeout —
// rejections return an already-resolved Future with the queue's full
// error. After Close, returns an already-resolved Future with the queue's
// closed error.
func (q *Queue) Submit(op Op) *Future {
	u := &unit{fut: Future{done: make(chan struct{})}, op: [1]Op{op}}
	u.futs[0] = &u.fut
	q.enqueue(item{ops: u.op[:], futs: u.futs[:]})
	return &u.fut
}

// SubmitBatch enqueues ops as one unit and returns one Future per op. The
// batch occupies a single queue slot regardless of length, so backpressure
// is per-submission, not per-op — a producer with a ready-made batch pays
// one channel send where len(ops) Submits would pay len(ops). The ops
// apply in slice order at the batch's FIFO queue position and coalesce
// with neighboring submissions exactly as the equivalent Submit sequence
// would (same-kind runs, capped at MaxBatch per engine batch). The queue
// takes ownership of ops until every future resolves; the caller must not
// modify the slice after SubmitBatch returns. Empty input returns nil.
// After Close, every returned Future is already resolved with ErrClosed.
func (q *Queue) SubmitBatch(ops []Op) []*Future {
	if len(ops) == 0 {
		return nil
	}
	futs := make([]*Future, len(ops))
	for i := range futs {
		futs[i] = &Future{done: make(chan struct{})}
	}
	q.enqueue(item{ops: ops, futs: futs})
	return futs
}

// enqueue hands a submission to the drainer under the admission policy,
// starting the drainer with the first accepted one. A submission the queue
// does not accept resolves every future with ErrClosed or ErrFull.
func (q *Queue) enqueue(it item) {
	var err error
	q.mu.RLock()
	switch {
	case q.closed:
		err = ErrClosed
	case !q.send(it):
		err = ErrFull
	default:
		q.start.Do(func() {
			q.started.Store(true)
			go q.drain()
		})
	}
	q.mu.RUnlock()
	if err != nil {
		for _, f := range it.futs {
			f.err = err
			close(f.done)
		}
	}
}

// send enqueues it under the caller's read lock, applying the admission
// policy; false means the submission was rejected (full queue).
func (q *Queue) send(it item) bool {
	switch q.policy {
	case SubmitFail:
		select {
		case q.ch <- it:
			return true
		default:
			return false
		}
	case SubmitWait:
		select {
		case q.ch <- it:
			return true
		default:
		}
		t := time.NewTimer(q.submitTimeout)
		defer t.Stop()
		select {
		case q.ch <- it:
			return true
		case <-t.C:
			return false
		}
	default:
		q.ch <- it
		return true
	}
}

// Flush blocks until every op submitted before the call has applied, or —
// with Config.FlushTimeout set — until the deadline, returning
// ErrFlushTimeout (the flushed ops remain queued and still apply). Returns
// nil at once on a queue that never accepted a submission, and ErrClosed if
// the queue is closed (a closed queue has already drained everything it
// accepted). The marker is also a cancellation
// barrier: no CancelPairs pair spans it.
func (q *Queue) Flush() error {
	var deadline <-chan time.Time
	if q.flushTimeout > 0 {
		t := time.NewTimer(q.flushTimeout)
		defer t.Stop()
		deadline = t.C
	}
	marker := make(chan struct{})
	q.mu.RLock()
	switch {
	case q.closed:
		q.mu.RUnlock()
		return ErrClosed
	case !q.started.Load():
		q.mu.RUnlock()
		return nil
	}
	select {
	case q.ch <- item{flush: marker}:
		q.mu.RUnlock()
	case <-deadline:
		q.mu.RUnlock()
		return ErrFlushTimeout
	}
	select {
	case <-marker:
		return nil
	case <-deadline:
		return ErrFlushTimeout
	}
}

// Close stops accepting submissions, waits for every accepted op to apply,
// and releases the drainer goroutine. Idempotent; returns at once on a
// queue that never accepted a submission.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()
	q.start.Do(func() { close(q.drained) })
	<-q.drained
}

// Stats returns the ops/batches counters (safe concurrently; the two
// counters are read independently and may be one batch apart).
func (q *Queue) Stats() Stats {
	return Stats{Ops: q.ops.Load(), Batches: q.batches.Load(), Cancelled: q.cancelled.Load()}
}

// drain is the single consumer: block for the first waiting entry, scoop
// up whatever else has arrived (bounded by maxBatch entries), apply,
// repeat.
func (q *Queue) drain() {
	defer close(q.drained)
	for {
		it, ok := <-q.ch
		if !ok {
			return
		}
		window := append(q.window[:0], it)
	collect:
		for len(window) < q.maxBatch {
			select {
			case it, ok := <-q.ch:
				if !ok {
					break collect
				}
				window = append(window, it)
			default:
				break collect
			}
		}
		q.apply(window)
		clear(window) // drop slice and future pointers from the pooled buffer
		q.window = window[:0]
	}
}

// apply makes one pass over a drained window: it copies the entries' ops
// and futures into the flat buffers in FIFO order and applies each stretch
// between flush markers, releasing a marker once everything before it has
// applied.
func (q *Queue) apply(window []item) {
	ops, futs := q.flatOps[:0], q.flatFuts[:0]
	from := 0
	for _, it := range window {
		if it.flush == nil {
			ops = append(ops, it.ops...)
			futs = append(futs, it.futs...)
			continue
		}
		q.applyStretch(ops[from:], futs[from:])
		from = len(ops)
		close(it.flush)
	}
	q.applyStretch(ops[from:], futs[from:])
	clear(futs) // drop future pointers from the pooled buffer
	q.flatOps, q.flatFuts = ops[:0], futs[:0]
}

// applyStretch applies one stretch of a window as maximal same-kind runs of
// at most maxBatch ops, in FIFO order. With CancelPairs on, markCancels
// first flags annihilating insert+delete pairs; a flagged op resolves nil
// in place of applying, without splitting the run around it, so a
// cancelled pair buried in an insert run still yields a single engine
// batch. Each run is compacted in place (survivors move left over the
// cancelled ops) and handed to the applier as a subslice.
func (q *Queue) applyStretch(ops []Op, futs []*Future) {
	if q.cancel {
		q.markCancels(ops)
	}
	for i := 0; i < len(ops); {
		from, to := i, i
		for ; i < len(ops) && to-from < q.maxBatch; i++ {
			if q.cancel && q.skip[i] {
				q.cancelled.Add(1)
				close(futs[i].done)
				continue
			}
			if to > from && ops[i].Delete != ops[from].Delete {
				break
			}
			ops[to], futs[to] = ops[i], futs[i]
			to++
		}
		if to == from {
			continue // the whole run cancelled away; no engine batch
		}
		errs := q.applyRun(ops[from:to])
		// Count before resolving: anyone observing a future resolve (and
		// therefore anyone a Flush released) sees Stats covering that op.
		q.ops.Add(uint64(to - from))
		q.batches.Add(1)
		for k, f := range futs[from:to] {
			if errs != nil {
				f.err = errs[k]
			}
			close(f.done)
		}
	}
}

// markCancels walks one stretch in FIFO order and flags annihilating pairs
// in q.skip: an insert of an edge with no earlier unresolved op on that
// edge, whose next same-edge op is a delete, cancels against it. A second
// insert of a pending edge blocks that edge for the rest of the stretch
// (its delete must apply — the first insert made the edge live, so only
// engine application yields the true stream's state), until an applied
// delete resets it. Deletes of edges with no pending insert apply normally
// and reset the edge. Map values: >= 0 is the index of that edge's pending
// (cancellable) insert; -1 is the blocked state.
func (q *Queue) markCancels(ops []Op) {
	if cap(q.skip) < len(ops) {
		q.skip = make([]bool, len(ops))
	} else {
		q.skip = q.skip[:len(ops)]
		clear(q.skip)
	}
	if q.keyst == nil {
		q.keyst = make(map[[2]int]int, 64)
	} else {
		clear(q.keyst)
	}
	for i, op := range ops {
		k := [2]int{op.U, op.V}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		at, ok := q.keyst[k]
		switch {
		case op.Delete:
			if ok {
				if at >= 0 {
					q.skip[at], q.skip[i] = true, true
				}
				delete(q.keyst, k)
			}
		case !ok:
			q.keyst[k] = i
		case at >= 0:
			q.keyst[k] = -1
		}
	}
}

// applyRun hands one coalesced same-kind run to the applier, containing any
// panic that escapes it: the drainer goroutine must survive — it owns every
// queued future — so a panicking applier resolves the run's ops with a
// descriptive error instead of killing the process. The embedding layer
// (parmsf) recovers engine panics itself and returns typed per-op errors;
// this recover is the queue's own last line, covering applier bugs outside
// that containment.
func (q *Queue) applyRun(ops []Op) (errs []error) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("ingest: applier panicked: %v", r)
			errs = make([]error, len(ops))
			for i := range errs {
				errs[i] = err
			}
		}
	}()
	if ops[0].Delete {
		return q.applier.ApplyDeletes(ops)
	}
	return q.applier.ApplyInserts(ops)
}
