package pram

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelStepRunsAllProcessors(t *testing.T) {
	m := NewParallel(4)
	defer m.Close()
	const n = 10000
	seen := make([]int32, n)
	m.Step(n, func(p int) { seen[p]++ })
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("processor %d ran %d times, want 1", p, c)
		}
	}
}

func TestParallelRunUncharged(t *testing.T) {
	m := NewParallel(3)
	defer m.Close()
	var hits int64
	m.Run(5000, func(p int) { atomic.AddInt64(&hits, 1) })
	if hits != 5000 {
		t.Fatalf("Run executed %d iterations, want 5000", hits)
	}
	if m.Time != 0 || m.Work != 0 || m.MaxActive != 0 {
		t.Fatalf("Run charged Time=%d Work=%d MaxActive=%d, want all zero",
			m.Time, m.Work, m.MaxActive)
	}
}

func TestParallelAccountingMatchesSequential(t *testing.T) {
	drive := func(m *Machine) {
		m.Step(64, func(p int) {})
		m.Steps(3, 17)
		m.Seq(9)
		m.Steps(6, 17)
		m.Step(2, func(p int) {})
	}
	seq := New(false)
	par := NewParallel(8)
	defer par.Close()
	drive(seq)
	drive(par)
	if seq.Time != par.Time || seq.Work != par.Work || seq.MaxActive != par.MaxActive {
		t.Fatalf("counters diverge: seq {T=%d W=%d A=%d} vs par {T=%d W=%d A=%d}",
			seq.Time, seq.Work, seq.MaxActive, par.Time, par.Work, par.MaxActive)
	}
}

func TestParallelCheckForcesSequential(t *testing.T) {
	// With Check set, rounds must execute sequentially so the stamp tables
	// need no synchronization — and violations are still detected.
	m := NewParallel(4)
	defer m.Close()
	m.Check = true
	s := m.NewSpace("A", 2)
	m.Step(2, func(p int) { s.Touch(p, 1) })
	if len(m.Violations()) != 1 {
		t.Fatalf("violations = %v, want exactly one", m.Violations())
	}
}

func TestWorkers(t *testing.T) {
	if w := New(false).Workers(); w != 1 {
		t.Fatalf("sequential Workers() = %d, want 1", w)
	}
	m := NewParallel(6)
	defer m.Close()
	if w := m.Workers(); w != 6 {
		t.Fatalf("Workers() = %d, want 6", w)
	}
	auto := NewParallel(0)
	defer auto.Close()
	if w := auto.Workers(); w < 1 {
		t.Fatalf("NewParallel(0).Workers() = %d, want >= 1", w)
	}
}

func TestCloseIdempotentAndUsable(t *testing.T) {
	m := NewParallel(4)
	m.Close()
	m.Close()
	ran := make([]bool, 8)
	m.Step(8, func(p int) { ran[p] = true }) // falls back to sequential
	for p, ok := range ran {
		if !ok {
			t.Fatalf("processor %d did not run after Close", p)
		}
	}
	spawned := false
	m.Spawn(func() { spawned = true }) // runs inline on a closed machine
	if !spawned {
		t.Fatal("Spawn on a closed machine did not run inline")
	}
}

func TestParallelOneWorkerInline(t *testing.T) {
	// A one-worker parallel machine has no pool; kernels run inline.
	m := NewParallel(1)
	defer m.Close()
	order := make([]int, 0, 8)
	m.Step(8, func(p int) { order = append(order, p) })
	for i, p := range order {
		if i != p {
			t.Fatalf("1-worker execution out of order: %v", order)
		}
	}
}

// TestPoolStressWidths hammers the fork-join round with back-to-back
// rounds of varying widths: every index of every round must execute exactly
// once, with no bleed between rounds (the dispatcher resets the chunk
// counter only after every helper of the previous round has left).
func TestPoolStressWidths(t *testing.T) {
	m := NewParallel(4)
	defer m.Close()
	const n = 5000
	counts := make([]int32, n)
	expected := make([]int32, n)
	for round := 0; round < 400; round++ {
		w := 1 + (round*997)%n
		m.Run(w, func(p int) { atomic.AddInt32(&counts[p], 1) })
		for p := 0; p < w; p++ {
			expected[p]++
		}
	}
	for p := range counts {
		if counts[p] != expected[p] {
			t.Fatalf("index %d executed %d times, want %d", p, counts[p], expected[p])
		}
	}
}

// TestNestedRunInline verifies the re-entrancy guard: a kernel dispatching
// on its own machine executes the nested kernel inline instead of
// overwriting the round in flight.
func TestNestedRunInline(t *testing.T) {
	m := NewParallel(4)
	defer m.Close()
	var hits int64
	m.Run(8, func(p int) {
		m.Run(4, func(q int) { atomic.AddInt64(&hits, 1) })
	})
	if hits != 32 {
		t.Fatalf("nested Run executed %d iterations, want 32", hits)
	}
}

// TestRunDispatchAllocFree pins the executor's steady-state dispatch cost:
// a warm fork-join round (helper spawns of one pre-bound function value,
// chunk claims on one atomic counter, one WaitGroup wait) performs zero
// allocations.
func TestRunDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	m := NewParallel(4)
	defer m.Close()
	sink := make([]int64, 1<<13)
	f := func(p int) { sink[p]++ }
	m.Run(len(sink), f) // warm the pool
	if avg := testing.AllocsPerRun(50, func() { m.Run(len(sink), f) }); avg != 0 {
		t.Fatalf("warm Run dispatch allocates %v/round, want 0", avg)
	}
}

// TestRoundProgress requires the helpers to claim chunks: on a two-worker
// machine, processor 0 of a two-chunk round blocks until processor 1 has
// run, so a round that leaves every chunk to its dispatcher never finishes.
func TestRoundProgress(t *testing.T) {
	m := NewParallel(2)
	last := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(2, func(p int) {
			if p == 0 {
				<-last
			} else {
				close(last)
			}
		})
	}()
	select {
	case <-done:
		m.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("a two-chunk round whose processor 0 waits for processor 1 did not finish")
	}
}
