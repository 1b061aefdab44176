package pram

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file adds the real-concurrency backend of the machine. Machines from
// New simulate rounds sequentially; a machine from NewParallel holds a Pool
// of persistent goroutines and runs each round as a fork-join on it. Cost
// accounting (Time, Work, MaxActive) is identical for both backends — the
// executor changes only how long a round takes on the wall clock, never
// what it is charged on the model — so a workload driven through a
// sequential and a parallel machine must report identical counters.
//
// A round is one fork-join: the dispatcher writes the round into the pool,
// spawns helpers that claim chunks from one atomic counter alongside it, and
// waits for them on one WaitGroup. The helper is a function value bound once
// at construction, so a warm round allocates nothing.

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
		m.pool = NewPool(workers)
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
// afterwards: kernels simply run sequentially and Spawn runs inline. Safe on
// sequential machines and safe to call twice.
func (m *Machine) Close() {
	if m.pool != nil {
		m.pool.Close()
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

// Spawn runs task on the machine's pool, concurrently with the caller, or
// inline on a sequential or closed machine. It charges nothing. A task must
// not step or run rounds on the machine, which is not safe for concurrent
// use; the sparsification tree's node tasks charge private simulators.
func (m *Machine) Spawn(task func()) {
	if m.pool == nil {
		task()
		return
	}
	m.pool.Spawn(task)
}

// chunksPerWorker over-decomposes each round for load balance: a claimant
// that finishes a cheap chunk claims the next instead of idling at the
// barrier behind a slow one.
const chunksPerWorker = 4

// Pool is a fixed set of persistent goroutines that run submitted tasks:
// the helpers of a parallel machine's rounds, and whatever the machine's
// owner spawns on it. A round is dispatched by one goroutine at a time.
type Pool struct {
	workers int
	// tasks holds up to four submissions per worker, so a spawner can run
	// ahead of the workers; a full buffer blocks it, which is safe because
	// no task waits for its spawner.
	tasks  chan func()
	once   sync.Once
	exited sync.WaitGroup

	// The round in flight, written by its dispatcher before the helpers are
	// spawned (the channel send orders the writes before their reads).
	f       func(p int)
	active  int // processors [0, active)
	size    int // processors per chunk
	chunks  int
	next    atomic.Int64   // next unclaimed chunk
	helpers sync.WaitGroup // spawned helpers still in the round
	help    func()         // pl.helper, bound once so a spawn allocates nothing
	inRound atomic.Bool    // a nested dispatch runs inline

	// trap captures the first panic a kernel chunk throws during a round.
	// The claimant recovers it, so every helper still reaches the barrier,
	// and the dispatcher re-throws it once the barrier resolves: a kernel
	// panic surfaces on the goroutine that dispatched the round, where the
	// API layer's poisoning recover can catch it, instead of killing the
	// process from a pool goroutine.
	trap atomic.Pointer[trappedPanic]
}

// trappedPanic boxes a recovered kernel panic value for the round's
// dispatcher to re-throw.
type trappedPanic struct{ val any }

// NewPool starts workers goroutines (at least one). Release them with
// Close.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	pl := &Pool{workers: workers, tasks: make(chan func(), 4*workers)}
	pl.help = pl.helper
	pl.exited.Add(workers)
	for i := 0; i < workers; i++ {
		go pl.loop()
	}
	return pl
}

func (pl *Pool) loop() {
	defer pl.exited.Done()
	for task := range pl.tasks {
		pl.exec(task)
	}
}

// exec runs one task, keeping the goroutine alive if the task panics past
// its own containment (round helpers and the pipeline scheduler's node
// tasks trap their panics; this recover is the pool's own backstop — a dead
// goroutine would strand queued tasks and hang whoever waits on them).
func (pl *Pool) exec(task func()) {
	defer func() { recover() }()
	task()
}

// Spawn submits one task. Spawn after Close panics.
func (pl *Pool) Spawn(task func()) { pl.tasks <- task }

// Close releases the goroutines once the queued tasks have run and returns
// when they have exited. Idempotent; never call it from a pool task.
func (pl *Pool) Close() {
	pl.once.Do(func() { close(pl.tasks) })
	pl.exited.Wait()
}

// run fans processors [0, active) out over the pool and returns once every
// chunk has run. Chunks are contiguous ranges, so each claimant touches
// memory in increasing-p order; the dispatcher claims chunks alongside at
// most workers-1 helpers.
func (pl *Pool) run(active int, f func(p int)) {
	if !pl.inRound.CompareAndSwap(false, true) {
		// Nested dispatch from inside a kernel: execute inline. Kernels on
		// this machine are EREW-clean, so inline execution is always valid.
		for p := 0; p < active; p++ {
			f(p)
		}
		return
	}
	chunks := min(pl.workers*chunksPerWorker, active)
	pl.f, pl.active, pl.size = f, active, (active+chunks-1)/chunks
	pl.chunks = (active + pl.size - 1) / pl.size
	pl.next.Store(0)
	helpers := min(pl.workers-1, pl.chunks-1)
	pl.helpers.Add(helpers)
	for i := 0; i < helpers; i++ {
		pl.tasks <- pl.help
	}
	pl.claim()
	pl.helpers.Wait()
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

// helper is one pooled claimant of the round in flight.
func (pl *Pool) helper() {
	defer pl.helpers.Done()
	pl.claim()
}

// claim executes chunks of the round in flight until none is left.
func (pl *Pool) claim() {
	for {
		c := int(pl.next.Add(1) - 1)
		if c >= pl.chunks {
			return
		}
		lo := c * pl.size
		pl.execChunk(lo, min(lo+pl.size, pl.active))
	}
}

// execChunk runs one claimed chunk, trapping a kernel panic (first one
// wins). The remaining indices of a panicked chunk are skipped — the
// round's output is already lost — but its claimant goes on claiming, so
// the round still completes.
func (pl *Pool) execChunk(lo, hi int) {
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
