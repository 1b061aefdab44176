package ingest

import (
	"errors"
	"sync"
	"testing"
)

// recorder is a test Applier that logs batches and fails ops on demand.
type recorder struct {
	mu      sync.Mutex
	batches [][]Op
	failOn  func(Op) error
}

func (r *recorder) apply(ops []Op) []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := append([]Op(nil), ops...)
	r.batches = append(r.batches, cp)
	var errs []error
	for i, op := range ops {
		if r.failOn != nil {
			if err := r.failOn(op); err != nil {
				if errs == nil {
					errs = make([]error, len(ops))
				}
				errs[i] = err
			}
		}
	}
	return errs
}

func (r *recorder) ApplyInserts(ops []Op) []error { return r.apply(ops) }
func (r *recorder) ApplyDeletes(ops []Op) []error { return r.apply(ops) }

func TestFIFOAndCoalescing(t *testing.T) {
	rec := &recorder{}
	q := NewWithConfig(rec, Config{Depth: 64, MaxBatch: 16})
	var futs []*Future
	for i := 0; i < 10; i++ {
		futs = append(futs, q.Submit(Op{U: i, V: i + 1, W: int64(i)}))
	}
	for i := 0; i < 5; i++ {
		futs = append(futs, q.Submit(Op{Delete: true, U: i, V: i + 1}))
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// All 15 ops applied, in order, with deletes never riding an insert run.
	var seen []Op
	for _, b := range rec.batches {
		kind := b[0].Delete
		for _, op := range b {
			if op.Delete != kind {
				t.Fatal("mixed-kind batch")
			}
			seen = append(seen, op)
		}
	}
	if len(seen) != 15 {
		t.Fatalf("applied %d ops, want 15", len(seen))
	}
	for i := 0; i < 10; i++ {
		if seen[i].Delete || seen[i].U != i {
			t.Fatalf("op %d out of order: %+v", i, seen[i])
		}
	}
	for i := 10; i < 15; i++ {
		if !seen[i].Delete || seen[i].U != i-10 {
			t.Fatalf("op %d out of order: %+v", i, seen[i])
		}
	}
	st := q.Stats()
	if st.Ops != 15 || st.Batches == 0 || st.Batches > 15 {
		t.Fatalf("stats = %+v", st)
	}
	q.Close()
}

func TestPerOpErrors(t *testing.T) {
	bad := errors.New("bad op")
	rec := &recorder{failOn: func(op Op) error {
		if op.U == 3 {
			return bad
		}
		return nil
	}}
	q := NewWithConfig(rec, Config{Depth: 8, MaxBatch: 8})
	defer q.Close()
	var futs []*Future
	for i := 0; i < 6; i++ {
		futs = append(futs, q.Submit(Op{U: i, V: i + 1}))
	}
	for i, f := range futs {
		err := f.Wait()
		if i == 3 && err != bad {
			t.Fatalf("future 3: err = %v, want bad", err)
		}
		if i != 3 && err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
}

func TestMaxBatchBound(t *testing.T) {
	rec := &recorder{}
	q := NewWithConfig(rec, Config{Depth: 256, MaxBatch: 4})
	for i := 0; i < 64; i++ {
		q.Submit(Op{U: i, V: i + 1})
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	q.Close()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, b := range rec.batches {
		if len(b) > 4 {
			t.Fatalf("batch of %d exceeds maxBatch 4", len(b))
		}
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	rec := &recorder{}
	q := NewWithConfig(rec, Config{Depth: 128, MaxBatch: 32})
	var futs []*Future
	for i := 0; i < 40; i++ {
		futs = append(futs, q.Submit(Op{U: i, V: i + 1}))
	}
	q.Close()
	for i, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatalf("accepted op %d lost on Close: %v", i, err)
		}
	}
	if err := q.Submit(Op{U: 1, V: 2}).Wait(); err != ErrClosed {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := q.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: err = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

func TestConcurrentProducers(t *testing.T) {
	rec := &recorder{}
	q := NewWithConfig(rec, Config{Depth: 32, MaxBatch: 8})
	const producers = 8
	const perProducer = 200
	var wg sync.WaitGroup
	errCh := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var last *Future
			for i := 0; i < perProducer; i++ {
				last = q.Submit(Op{U: p, V: i, W: int64(i)})
			}
			errCh <- last.Wait() // FIFO: last resolved => all resolved
		}(p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := q.Stats(); st.Ops != producers*perProducer {
		t.Fatalf("applied %d ops, want %d", st.Ops, producers*perProducer)
	}
	q.Close()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// Per-producer order is preserved within the global FIFO.
	next := [producers]int{}
	for _, b := range rec.batches {
		for _, op := range b {
			if op.V != next[op.U] {
				t.Fatalf("producer %d op %d applied after %d", op.U, op.V, next[op.U])
			}
			next[op.U]++
		}
	}
	for p, n := range next {
		if n != perProducer {
			t.Fatalf("producer %d: %d ops applied", p, n)
		}
	}
}

// TestSubmitBatchOrderAndSplitting checks that a batch submission applies
// in slice order at its queue position, splits where its kind flips, and
// coalesces with neighboring unit submissions.
func TestSubmitBatchOrderAndSplitting(t *testing.T) {
	rec := &recorder{}
	q := NewWithConfig(rec, Config{Depth: 64, MaxBatch: 16})
	a := q.Submit(Op{U: 100, V: 101, W: 1})
	futs := q.SubmitBatch([]Op{
		{U: 0, V: 1, W: 10},
		{U: 1, V: 2, W: 11},
		{Delete: true, U: 0, V: 1},
		{Delete: true, U: 1, V: 2},
		{U: 2, V: 3, W: 12},
	})
	b := q.Submit(Op{U: 200, V: 201, W: 2})
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, f := range append(append([]*Future{a}, futs...), b) {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var seen []Op
	for _, batch := range rec.batches {
		kind := batch[0].Delete
		for _, op := range batch {
			if op.Delete != kind {
				t.Fatal("mixed-kind batch")
			}
			seen = append(seen, op)
		}
	}
	wantU := []int{100, 0, 1, 0, 1, 2, 200}
	wantDel := []bool{false, false, false, true, true, false, false}
	if len(seen) != len(wantU) {
		t.Fatalf("applied %d ops, want %d", len(seen), len(wantU))
	}
	for i, op := range seen {
		if op.U != wantU[i] || op.Delete != wantDel[i] {
			t.Fatalf("op %d = %+v, want U=%d del=%v", i, op, wantU[i], wantDel[i])
		}
	}
	if st := q.Stats(); st.Ops != 7 {
		t.Fatalf("stats = %+v", st)
	}
	q.Close()
}

// TestSubmitBatchMaxBatchCap checks a long batch splits across engine
// batches at the maxBatch cap and resumes mid-slice.
func TestSubmitBatchMaxBatchCap(t *testing.T) {
	rec := &recorder{}
	q := NewWithConfig(rec, Config{Depth: 64, MaxBatch: 4})
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{U: i, V: i + 1, W: int64(i)}
	}
	futs := q.SubmitBatch(ops)
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	total := 0
	for _, b := range rec.batches {
		if len(b) > 4 {
			t.Fatalf("batch of %d exceeds maxBatch", len(b))
		}
		for _, op := range b {
			if op.U != total {
				t.Fatalf("op %d out of order: %+v", total, op)
			}
			total++
		}
	}
	if total != 10 {
		t.Fatalf("applied %d ops, want 10", total)
	}
	q.Close()
}

// TestSubmitBatchErrorsAndClose checks per-op error routing within a batch
// and the closed-queue path.
func TestSubmitBatchErrorsAndClose(t *testing.T) {
	wantErr := errors.New("boom")
	rec := &recorder{failOn: func(op Op) error {
		if op.U == 1 {
			return wantErr
		}
		return nil
	}}
	q := NewWithConfig(rec, Config{Depth: 8, MaxBatch: 8})
	futs := q.SubmitBatch([]Op{{U: 0, V: 5, W: 1}, {U: 1, V: 5, W: 2}, {U: 2, V: 5, W: 3}})
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if futs[0].Wait() != nil || futs[2].Wait() != nil {
		t.Fatal("unexpected errors")
	}
	if futs[1].Wait() != wantErr {
		t.Fatalf("got %v, want %v", futs[1].Wait(), wantErr)
	}
	if got := q.SubmitBatch(nil); got != nil {
		t.Fatal("empty batch should return nil")
	}
	q.Close()
	closed := q.SubmitBatch([]Op{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	if len(closed) != 2 {
		t.Fatalf("want 2 resolved futures, got %d", len(closed))
	}
	for _, f := range closed {
		if f.Wait() != ErrClosed {
			t.Fatalf("closed queue future: %v", f.Wait())
		}
	}
}

// nopApplier accepts every op without recording it, so allocation counts
// measure the queue alone.
type nopApplier struct{}

func (nopApplier) ApplyInserts([]Op) []error { return nil }
func (nopApplier) ApplyDeletes([]Op) []error { return nil }

// TestSubmitWaitAllocs gates the unit submission path on a warm queue: a
// Submit allocates its future (sharing one allocation with its op and
// queue-entry slices) and the future's done channel, and the drainer's
// pooled buffers add nothing.
func TestSubmitWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	q := NewWithConfig(nopApplier{}, Config{})
	defer q.Close()
	op := Op{U: 1, V: 2, W: 3}
	submit := func() {
		if err := q.Submit(op).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		submit() // start the drainer and grow its buffers
	}
	if avg := testing.AllocsPerRun(500, submit); avg > 2 {
		t.Fatalf("Submit+Wait allocates %.2f/op, want <= 2", avg)
	}
}

// TestLazyStartUnderConcurrency races the first submissions of fresh
// queues against Flush and Close: whichever wins, every future resolves
// to nil or the closed error, Flush returns nil or the closed error,
// Close returns, and the applied count matches the futures that resolved
// nil.
func TestLazyStartUnderConcurrency(t *testing.T) {
	for round := 0; round < 50; round++ {
		q := NewWithConfig(nopApplier{}, Config{Depth: 4, MaxBatch: 4})
		start := make(chan struct{})
		var wg sync.WaitGroup
		futs := make([][]*Future, 4)
		for p := range futs {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					if (p+i)%2 == 0 {
						futs[p] = append(futs[p], q.Submit(Op{U: p, V: i}))
					} else {
						futs[p] = append(futs[p], q.SubmitBatch([]Op{{U: p, V: i}, {Delete: true, U: p, V: i}})...)
					}
				}
			}(p)
		}
		flushErrs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				flushErrs <- q.Flush()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			q.Close()
		}()
		close(start)
		wg.Wait() // Close has returned, so every accepted op has applied
		close(flushErrs)
		for err := range flushErrs {
			if err != nil && err != ErrClosed {
				t.Fatalf("round %d: Flush = %v, want nil or ErrClosed", round, err)
			}
		}
		applied := uint64(0)
		for _, fs := range futs {
			for _, f := range fs {
				select {
				case <-f.Done():
				default:
					t.Fatalf("round %d: future unresolved after Close", round)
				}
				switch f.Err() {
				case nil:
					applied++
				case ErrClosed:
				default:
					t.Fatalf("round %d: future resolved %v", round, f.Err())
				}
			}
		}
		if st := q.Stats(); st.Ops != applied {
			t.Fatalf("round %d: stats %+v, want %d applied ops", round, st, applied)
		}
	}
}
