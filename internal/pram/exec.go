package pram

import (
	"runtime"
	"sync/atomic"
)

// This file adds the real-concurrency backend of the machine: a persistent
// set of worker run loops that execute Step/Run kernels across OS threads
// with a synchronous barrier per round. Machines from New simulate rounds
// sequentially; machines from NewParallel fan each round out over the pool.
// Cost accounting (Time, Work, MaxActive) is identical for both backends —
// the executor changes only how long a round takes on the wall clock, never
// what it is charged on the model — so a workload driven through a
// sequential and a parallel machine must report identical counters.
//
// Dispatch is allocation-free in steady state: a round is published by
// writing a reusable descriptor (kernel, width, chunk size) into the pool
// and storing one atomic cursor word, chunks are claimed by compare-and-swap
// on that cursor (no channel sends, no per-round WaitGroup), and completion
// is a single atomic countdown observed by the dispatcher, which spins
// briefly and then parks on a pre-allocated semaphore channel. Workers
// likewise spin on the round sequence before parking, so back-to-back
// rounds never pay a scheduler wakeup.

// NewParallel returns a machine whose kernels execute for real across a
// pool of `workers` goroutines (workers <= 0 selects GOMAXPROCS). EREW
// checking is off: a kernel that is EREW-clean touches every memory cell
// from at most one processor per round, which is exactly the discipline
// that makes the parallel execution data-race free. To verify a kernel,
// run it through New(true) first; if the Check flag is set on a parallel
// machine anyway, rounds fall back to sequential execution so the
// (unsynchronized) stamp tables stay safe.
//
// Call Close when done to release the worker goroutines.
func NewParallel(workers int) *Machine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := &Machine{workers: workers}
	if workers > 1 {
		m.pool = newPool(workers)
	}
	return m
}

// Workers returns the size of the machine's worker pool (1 for sequential
// simulators).
func (m *Machine) Workers() int {
	if m.workers == 0 {
		return 1
	}
	return m.workers
}

// Close releases the worker goroutines. The machine remains usable
// afterwards: kernels simply run sequentially. Safe on sequential machines
// and safe to call twice.
func (m *Machine) Close() {
	if m.pool != nil {
		m.pool.close()
		m.pool = nil
	}
}

// Run executes f(p) for p in [0, active) on the executor without charging
// Time or Work. It is the escape hatch for host kernels whose model cost is
// charged separately (via Steps) because their real execution shape — chunk
// counts, merge orders — depends on the worker count and must not leak into
// the machine-independent accounting. Kernels must be EREW-clean: distinct
// p write distinct cells.
func (m *Machine) Run(active int, f func(p int)) {
	if active <= 0 {
		return
	}
	if m.pool != nil && !m.Check && active > 1 {
		m.pool.run(active, f)
		return
	}
	for p := 0; p < active; p++ {
		f(p)
	}
}

// chunksPerWorker over-decomposes each round for load balance: a worker
// that finishes a cheap chunk claims the next from the shared cursor
// instead of idling at the barrier behind a slow one.
const chunksPerWorker = 4

// Spin budgets before parking. Workers spin on the round sequence between
// rounds and the dispatcher spins on the countdown barrier, so a burst of
// back-to-back rounds runs without any futex traffic; both yield to the
// scheduler while spinning so single-P hosts (GOMAXPROCS=1) make progress.
const (
	idleSpin = 1 << 7
	doneSpin = 1 << 7
)

// pool is a fixed set of persistent worker run loops plus the dispatching
// caller, which participates in every round. One pool serves one machine;
// rounds are serialized by the caller (the machine is not itself safe for
// concurrent Step calls, matching the synchronous PRAM model).
type pool struct {
	workers int // total parallelism: (workers-1) loops + the dispatcher

	// Round descriptor, written by the dispatcher strictly before the
	// cursor is stored (the cursor store publishes it).
	f      func(p int)
	active int // processors [0, active)
	size   int // indices per chunk

	// cursor packs the round's chunk geometry into one word:
	// high 32 bits = chunk count, low 32 bits = next unclaimed chunk.
	// Claiming is a CAS on the whole word, so a claim is always against
	// the current round — between rounds the cursor reads as exhausted
	// (idx == nchunks), and a stale worker that lost the race simply
	// finds nothing to do.
	cursor  atomic.Uint64
	pending atomic.Int64 // chunks not yet completed (countdown barrier)

	// seq is bumped once per round to wake idle workers; parked state uses
	// one flag + one pre-allocated semaphore channel per sleeper so a wake
	// is a flag swap and (only when actually parked) one channel send.
	seq      atomic.Uint64
	sleeping []atomic.Int32
	wake     []chan struct{}
	parked   atomic.Int32 // dispatcher parked on done
	done     chan struct{}

	inRound atomic.Bool // re-entrancy guard: nested run() executes inline
	closed  atomic.Bool

	// trap captures the first panic a kernel chunk throws during a round.
	// The claiming goroutine recovers it — the countdown barrier must keep
	// decrementing, or the dispatcher (and with it the whole forest) would
	// deadlock waiting on chunks that died — and the dispatcher re-throws
	// it once the barrier resolves, so a kernel panic surfaces on the
	// goroutine that dispatched the round (where the API layer's poisoning
	// recover can catch it) instead of killing the process from a worker.
	trap atomic.Pointer[trappedPanic]
}

// trappedPanic boxes a recovered kernel panic value for the round's
// dispatcher to re-throw.
type trappedPanic struct{ val any }

func newPool(workers int) *pool {
	pl := &pool{
		workers:  workers,
		sleeping: make([]atomic.Int32, workers-1),
		wake:     make([]chan struct{}, workers-1),
		done:     make(chan struct{}, 1),
	}
	for i := range pl.wake {
		pl.wake[i] = make(chan struct{}, 1)
		go pl.loop(i)
	}
	return pl
}

// run fans processors [0, active) out over the pool and waits for the
// barrier. Chunks are contiguous ranges so each claimant touches memory in
// increasing-p order; the dispatcher claims chunks alongside the workers.
func (pl *pool) run(active int, f func(p int)) {
	if !pl.inRound.CompareAndSwap(false, true) {
		// Nested dispatch from inside a kernel: execute inline. Kernels on
		// this machine are EREW-clean, so inline execution is always valid.
		for p := 0; p < active; p++ {
			f(p)
		}
		return
	}
	nchunks := pl.workers * chunksPerWorker
	if nchunks > active {
		nchunks = active
	}
	size := (active + nchunks - 1) / nchunks
	nchunks = (active + size - 1) / size

	pl.f, pl.active, pl.size = f, active, size
	pl.pending.Store(int64(nchunks))
	pl.cursor.Store(uint64(nchunks) << 32) // publish: geometry up, idx 0
	pl.seq.Add(1)
	// Wake at most nchunks-1 sleepers: the dispatcher claims chunks too,
	// and a worker woken into an already-exhausted round is pure scheduler
	// churn. Waking nobody is always safe — the dispatcher drains whatever
	// the woken workers don't take.
	woken := 0
	for i := range pl.sleeping {
		if woken >= nchunks-1 {
			break
		}
		if pl.sleeping[i].Swap(0) == 1 {
			pl.wake[i] <- struct{}{}
			woken++
		}
	}
	pl.claim()
	pl.wait()
	pl.f = nil // drop the kernel reference between rounds
	pl.inRound.Store(false)
	if t := pl.trap.Swap(nil); t != nil {
		// Re-throw the round's first kernel panic on the dispatcher, after
		// the barrier: the pool is quiescent again and the panic unwinds
		// the goroutine that asked for the round, exactly as it would have
		// under sequential execution.
		panic(t.val)
	}
}

// claim repeatedly claims and executes chunks of the current round until
// the cursor is exhausted. Safe to call from any goroutine at any time: the
// (nchunks, idx) pair is read in one atomic load, so a claimant either wins
// a chunk of the live round — whose descriptor was fully written before the
// cursor was stored — or sees an exhausted cursor and leaves.
func (pl *pool) claim() {
	for {
		cur := pl.cursor.Load()
		idx := uint32(cur)
		if idx >= uint32(cur>>32) {
			return
		}
		if !pl.cursor.CompareAndSwap(cur, cur+1) {
			continue
		}
		lo := int(idx) * pl.size
		hi := lo + pl.size
		if hi > pl.active {
			hi = pl.active
		}
		pl.execChunk(lo, hi)
		if pl.pending.Add(-1) == 0 {
			if pl.parked.Swap(0) == 1 {
				pl.done <- struct{}{}
			}
		}
	}
}

// execChunk runs one claimed chunk, trapping a kernel panic (first one
// wins) instead of letting it unwind a worker run loop. The remaining
// indices of a panicked chunk are skipped — the round's output is already
// lost — but the chunk still counts down the barrier, keeping every other
// claimant and the dispatcher live.
func (pl *pool) execChunk(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			pl.trap.CompareAndSwap(nil, &trappedPanic{val: r})
		}
	}()
	f := pl.f
	for p := lo; p < hi; p++ {
		f(p)
	}
}

// wait blocks the dispatcher until every chunk of the round has completed:
// a brief spin on the countdown, then a park on the done semaphore. The
// flag/recheck/drain dance guarantees no wakeup is lost and no stale token
// survives the round.
func (pl *pool) wait() {
	for i := 0; i < doneSpin; i++ {
		if pl.pending.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	for pl.pending.Load() != 0 {
		pl.parked.Store(1)
		if pl.pending.Load() == 0 {
			if pl.parked.Swap(0) == 0 {
				<-pl.done // the finisher claimed the flag; drain its token
			}
			return
		}
		<-pl.done
	}
}

// loop is one persistent worker: claim chunks whenever a new round is
// published, spin briefly between rounds, then park until woken.
func (pl *pool) loop(i int) {
	var last uint64
	for {
		if s := pl.seq.Load(); s != last {
			last = s
			if pl.closed.Load() {
				return
			}
			pl.claim()
			continue
		}
		idle := 0
		for pl.seq.Load() == last {
			if idle++; idle < idleSpin {
				runtime.Gosched()
				continue
			}
			pl.sleeping[i].Store(1)
			if pl.seq.Load() != last {
				if pl.sleeping[i].Swap(0) == 0 {
					<-pl.wake[i] // the publisher claimed the flag; drain
				}
				break
			}
			<-pl.wake[i]
			break
		}
	}
}

// close publishes a terminal round: workers observe the closed flag on the
// next sequence change and exit. Idempotent.
func (pl *pool) close() {
	if pl.closed.Swap(true) {
		return
	}
	pl.seq.Add(1)
	for i := range pl.sleeping {
		if pl.sleeping[i].Swap(0) == 1 {
			pl.wake[i] <- struct{}{}
		}
	}
}
