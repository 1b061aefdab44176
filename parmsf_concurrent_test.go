package parmsf

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"parmsf/internal/xrand"
)

// checkSnapshotConsistent asserts one snapshot is internally consistent:
// its weight and size match its own edge list, every listed edge connects
// its endpoints in the same snapshot's component array, and the component
// count is n minus the edge count. Returns an error message or "".
func checkSnapshotConsistent(s *Snapshot, n int) string {
	var sum Weight
	cnt := 0
	bad := ""
	s.Edges(func(u, v int, w Weight) bool {
		sum += w
		cnt++
		if !s.Connected(u, v) {
			bad = fmt.Sprintf("edge (%d,%d) endpoints not connected in the same snapshot", u, v)
			return false
		}
		return true
	})
	if bad != "" {
		return bad
	}
	if cnt != s.Size() {
		return fmt.Sprintf("edge list has %d edges, Size() = %d", cnt, s.Size())
	}
	if sum != s.Weight() {
		return fmt.Sprintf("edge list weighs %d, Weight() = %d", sum, s.Weight())
	}
	if s.Components() != n-cnt {
		return fmt.Sprintf("Components() = %d with %d edges over %d vertices", s.Components(), cnt, n)
	}
	return ""
}

// TestConcurrentReadersDuringBatches is the read-plane stress test: reader
// goroutines hammer Snapshot/Connected/Components while one writer streams
// insert and delete batches through the engine. Every observed snapshot
// must be internally consistent (weight matches its edge list, endpoints
// connected, component count coherent) and epochs must be monotone per
// reader; readers must progress throughout (they never take the engine
// lock) and must observe many distinct epochs, i.e. they really do read
// while batches apply. Run with -race to certify the read plane shares no
// unsynchronized state with the write plane. The rebase configs repeat the
// three shapes with a forced rebase every 4 epochs, so readers cross
// snapshot era boundaries while full sweeps run on the worker pool and the
// sparsify pipeline publishes, instead of on the rare capacity-driven
// schedule.
func TestConcurrentReadersDuringBatches(t *testing.T) {
	configs := map[string]Options{
		"default":                   {},
		"workers":                   {Workers: 2},
		"sparsify-workers":          {Sparsify: true, Workers: 2},
		"rebase-every-4":            {SnapshotRebaseEvery: 4},
		"workers-rebase-4":          {Workers: 2, SnapshotRebaseEvery: 4},
		"sparsify-workers-rebase-4": {Sparsify: true, Workers: 2, SnapshotRebaseEvery: 4},
	}
	for name, opt := range configs {
		opt := opt
		t.Run(name, func(t *testing.T) {
			const n = 96
			const readers = 4
			const rounds = 25
			opt.MaxEdges = 8 * n
			f := MustNew(n, opt)
			defer f.Close()

			var fail atomic.Value // string
			var reads [readers]atomic.Int64
			var epochsSeen [readers]atomic.Int64
			var started sync.WaitGroup
			started.Add(readers)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := xrand.New(uint64(1000 + r))
					var last uint64
					first := true
					started.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						s := f.Snapshot()
						if e := s.Epoch(); first || e != last {
							if !first && e < last {
								fail.Store(fmt.Sprintf("reader %d: epoch went backwards: %d after %d", r, e, last))
							}
							epochsSeen[r].Add(1)
							last, first = e, false
						}
						if msg := checkSnapshotConsistent(s, n); msg != "" {
							fail.Store(fmt.Sprintf("reader %d (epoch %d): %s", r, s.Epoch(), msg))
						}
						// Point queries against the same epoch's facade calls:
						// Connected through the Forest may observe a newer
						// epoch, which is fine — only per-snapshot answers
						// must cohere.
						u, v := rng.Intn(n), rng.Intn(n)
						_ = f.Connected(u, v)
						_ = f.Components()
						s.Release()
						reads[r].Add(1)
					}
				}(r)
			}

			// Writer: build/teardown churn in batches, synchronous entry
			// points (the ingest path has its own test below). The start
			// barrier plus a yield per round guarantee reader/writer overlap
			// even on a single-core host, where an unyielding writer could
			// otherwise finish its whole stream within one scheduler slice.
			started.Wait()
			rng := xrand.New(77)
			live := make(map[[2]int]Weight)
			nextW := Weight(MinWeight + 1)
			for round := 0; round < rounds; round++ {
				var ins []Edge
				for len(ins) < 24 {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					if u > v {
						u, v = v, u
					}
					if _, ok := live[[2]int{u, v}]; ok {
						continue
					}
					live[[2]int{u, v}] = nextW
					ins = append(ins, Edge{U: u, V: v, W: nextW})
					nextW++
				}
				if errs := f.InsertEdges(ins); errs != nil {
					for i, err := range errs {
						if err != nil {
							t.Fatalf("round %d: insert errs[%d] = %v", round, i, err)
						}
					}
				}
				var del []EdgeKey
				for k := range live {
					del = append(del, EdgeKey{U: k[0], V: k[1]})
					delete(live, k)
					if len(del) == 16 {
						break
					}
				}
				if errs := f.DeleteEdges(del); errs != nil {
					for i, err := range errs {
						if err != nil {
							t.Fatalf("round %d: delete errs[%d] = %v", round, i, err)
						}
					}
				}
				runtime.Gosched()
			}
			close(stop)
			wg.Wait()
			if msg := fail.Load(); msg != nil {
				t.Fatal(msg)
			}
			for r := 0; r < readers; r++ {
				if reads[r].Load() == 0 {
					t.Fatalf("reader %d never completed a read", r)
				}
				if epochsSeen[r].Load() < 2 {
					t.Fatalf("reader %d observed %d epochs; expected to see the stream advance", r, epochsSeen[r].Load())
				}
			}
			// The final snapshot must agree with the writer's bookkeeping.
			s := f.Snapshot()
			defer s.Release()
			if msg := checkSnapshotConsistent(s, n); msg != "" {
				t.Fatalf("final snapshot: %s", msg)
			}
			if s.Size() != f.Size() {
				t.Fatalf("snapshot size %d vs forest size %d after quiescence", s.Size(), f.Size())
			}
		})
	}
}

// TestSnapshotImmutabilityAcrossUpdates pins the epoch semantics: a held
// snapshot keeps answering from its own epoch across later updates, epochs
// advance exactly when the forest changes, and updates that cannot change
// the forest (a heavier cycle-closing edge arriving and leaving) publish
// nothing.
func TestSnapshotImmutabilityAcrossUpdates(t *testing.T) {
	f := MustNew(8, Options{})
	defer f.Close()
	mustIns := func(u, v int, w Weight) {
		t.Helper()
		if err := f.Insert(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	mustIns(0, 1, 10)
	mustIns(1, 2, 20)
	held := f.Snapshot()
	e0 := held.Epoch()

	// Non-tree churn: (0,2) closes the triangle with the heaviest weight —
	// the forest is unchanged, so no new epoch is published.
	mustIns(0, 2, 1000)
	if s := f.Snapshot(); s.Epoch() != e0 {
		t.Fatalf("non-tree insert published epoch %d (was %d)", s.Epoch(), e0)
	} else {
		s.Release()
	}
	if err := f.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	if s := f.Snapshot(); s.Epoch() != e0 {
		t.Fatalf("non-tree delete published epoch %d (was %d)", s.Epoch(), e0)
	} else {
		s.Release()
	}

	// A forest change advances the epoch; the held snapshot is untouched.
	mustIns(3, 4, 30)
	s := f.Snapshot()
	if s.Epoch() <= e0 {
		t.Fatalf("tree insert did not advance the epoch: %d", s.Epoch())
	}
	if s.Size() != 3 || !s.Connected(3, 4) {
		t.Fatalf("new snapshot wrong: size=%d", s.Size())
	}
	s.Release()
	if held.Epoch() != e0 || held.Size() != 2 || held.Connected(3, 4) || !held.Connected(0, 2) {
		t.Fatalf("held snapshot mutated: epoch=%d size=%d", held.Epoch(), held.Size())
	}
	held.Release()
}

// TestSubmitFlushIngest exercises the write-coalescing queue end to end:
// concurrent producers submit inserts, Flush publishes everything, per-op
// futures resolve with the synchronous API's errors, and the drainer
// coalesces multiple ops per engine batch.
func TestSubmitFlushIngest(t *testing.T) {
	const n = 64
	const producers = 4
	const perProducer = 40
	f := MustNew(n, Options{MaxEdges: 8 * n, QueueDepth: 64, MaxBatch: 32})
	defer f.Close()

	// Producer p owns vertex stripe [p*16, p*16+16): disjoint edges, no
	// cross-producer conflicts, deterministic expected state.
	var wg sync.WaitGroup
	futs := make([][]*Pending, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := p * 16
			w := Weight(MinWeight + 1 + Weight(p)*1000)
			for i := 0; i < perProducer; i++ {
				u := base + i%15
				v := base + 15
				if u == v {
					u = base
				}
				futs[p] = append(futs[p], f.Submit(Update{U: u, V: v, W: w + Weight(i)}))
			}
		}(p)
	}
	wg.Wait()
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := range futs {
		okCount := 0
		for _, fut := range futs[p] {
			if err := fut.Wait(); err == nil {
				okCount++
			} else if err != ErrExists {
				t.Fatalf("producer %d: unexpected error %v", p, err)
			}
		}
		if okCount != 15 {
			// 15 distinct (u, v) pairs per stripe; repeats fail ErrExists.
			t.Fatalf("producer %d: %d inserts succeeded, want 15", p, okCount)
		}
	}
	s := f.Snapshot()
	defer s.Release()
	if s.Size() != producers*15 {
		t.Fatalf("forest size %d after flush, want %d", s.Size(), producers*15)
	}
	if msg := checkSnapshotConsistent(s, n); msg != "" {
		t.Fatal(msg)
	}
	if !s.Connected(0, 15) || s.Connected(0, 16) {
		t.Fatal("stripe connectivity wrong")
	}
	ops, batches := f.IngestStats()
	if ops != producers*perProducer {
		t.Fatalf("ingest applied %d ops, want %d", ops, producers*perProducer)
	}
	if batches == 0 || batches > ops {
		t.Fatalf("ingest batches = %d for %d ops", batches, ops)
	}
	t.Logf("coalescing: %d ops in %d batches (%.1f ops/batch)", ops, batches, float64(ops)/float64(batches))

	// Async deletes ride the same queue; a bogus delete resolves ErrNotFound.
	bad := f.Submit(Update{Delete: true, U: 0, V: 13})
	good := f.Submit(Update{Delete: true, U: 0, V: 15})
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(); err != ErrNotFound {
		t.Fatalf("absent delete resolved %v, want ErrNotFound", err)
	}
	if err := good.Wait(); err != nil {
		t.Fatalf("live delete resolved %v", err)
	}

	f.Close()
	if err := f.Submit(Update{U: 1, V: 2, W: MinWeight + 1}).Wait(); err != ErrClosed {
		t.Fatalf("Submit after Close resolved %v, want ErrClosed", err)
	}
	if err := f.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	// The drained totals outlive the queue.
	if opsAfter, _ := f.IngestStats(); opsAfter != ops+2 {
		t.Fatalf("IngestStats after Close = %d ops, want %d", opsAfter, ops+2)
	}
}

// TestFlushWithoutSubmit pins that Flush on a never-submitted forest is a
// true no-op: its queue's drainer goroutine is never started.
func TestFlushWithoutSubmit(t *testing.T) {
	f := MustNew(4, Options{})
	defer f.Close()
	if err := f.Flush(); err != nil {
		t.Fatalf("Flush on idle forest: %v", err)
	}
	if ops, batches := f.IngestStats(); ops != 0 || batches != 0 {
		t.Fatalf("idle stats = (%d, %d)", ops, batches)
	}
}

// TestSubmitMalformed pins that a malformed insert submitted with its
// delete reports the synchronous API's errors — ErrBadEdge, then
// ErrNotFound — whether or not the cancelling coalescer could pair them,
// and that only the well-formed deletes enter the queue.
func TestSubmitMalformed(t *testing.T) {
	const n = 8
	bad := []Update{
		{U: 3, V: 3, W: 5},             // self loop
		{U: 3, V: n, W: 5},             // out-of-range vertex
		{U: 3, V: 4, W: MinWeight - 1}, // weight below MinWeight
		{U: 3, V: 4, W: math.MaxInt64}, // the core's infinity sentinel
	}
	for _, cancel := range []bool{false, true} {
		f := MustNew(n, Options{CoalesceCancel: cancel})
		for _, up := range bad {
			ps := f.SubmitBatch([]Update{up, {Delete: true, U: up.U, V: up.V}})
			if err := ps[0].Wait(); err != ErrBadEdge {
				t.Fatalf("cancel=%v %+v: insert resolved %v, want ErrBadEdge", cancel, up, err)
			}
			if err := ps[1].Wait(); err != ErrNotFound {
				t.Fatalf("cancel=%v %+v: delete resolved %v, want ErrNotFound", cancel, up, err)
			}
		}
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		if ops, _ := f.IngestStats(); ops != 2 || f.IngestCancelled() != 0 {
			t.Fatalf("cancel=%v: ingest ops %d, cancelled %d; want 2 and 0", cancel, ops, f.IngestCancelled())
		}
		if f.Size() != 0 || f.Poisoned() != nil {
			t.Fatalf("cancel=%v: size %d, poisoned %v", cancel, f.Size(), f.Poisoned())
		}
		f.Close()
	}
}

// TestConcurrentSubmitWithReaders drives the full concurrent plane at
// once — producers on the ingest queue, readers on snapshots — under the
// race detector, asserting per-reader epoch monotonicity and snapshot
// consistency while the coalescing drainer streams engine batches.
func TestConcurrentSubmitWithReaders(t *testing.T) {
	const n = 128
	f := MustNew(n, Options{Sparsify: true, Workers: 2, QueueDepth: 128, MaxBatch: 64})
	defer f.Close()

	var fail atomic.Value
	stop := make(chan struct{})
	var readersWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := f.Snapshot()
				if s.Epoch() < last {
					fail.Store("epoch went backwards")
				}
				last = s.Epoch()
				if msg := checkSnapshotConsistent(s, n); msg != "" {
					fail.Store(msg)
				}
				s.Release()
			}
		}(r)
	}

	const producers = 3
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			base := p * (n / producers)
			span := n / producers
			rng := xrand.New(uint64(31 + p))
			live := make([][2]int, 0, 64)
			w := Weight(MinWeight + 1 + Weight(p)*100000)
			for i := 0; i < 150; i++ {
				if len(live) > 12 && rng.Bool() {
					j := rng.Intn(len(live))
					k := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := f.Submit(Update{Delete: true, U: k[0], V: k[1]}).Wait(); err != nil {
						fail.Store(fmt.Sprintf("producer %d: delete (%d,%d): %v", p, k[0], k[1], err))
					}
				} else {
					u := base + rng.Intn(span)
					v := base + rng.Intn(span)
					if u == v {
						continue
					}
					fut := f.Submit(Update{U: u, V: v, W: w})
					w++
					switch err := fut.Wait(); err {
					case nil:
						live = append(live, [2]int{u, v})
					case ErrExists:
					default:
						fail.Store(fmt.Sprintf("producer %d: insert (%d,%d): %v", p, u, v, err))
					}
				}
			}
		}(p)
	}
	prodWG.Wait()
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readersWG.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	s := f.Snapshot()
	defer s.Release()
	if msg := checkSnapshotConsistent(s, n); msg != "" {
		t.Fatalf("final: %s", msg)
	}
}
