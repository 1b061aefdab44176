package ingest

import (
	"errors"
	"runtime"
	"testing"
)

// oneWindow drives ops through a CancelPairs queue as a single drained
// window (one SubmitBatch occupies one queue slot, so the drainer scoops
// it whole), waits for every future, flushes, closes, and returns the
// recorder plus the per-op errors and final stats.
func oneWindow(t *testing.T, ops []Op, cancel bool) (*recorder, []error, Stats) {
	t.Helper()
	rec := &recorder{}
	q := NewWithConfig(rec, Config{Depth: 64, MaxBatch: 16, CancelPairs: cancel})
	futs := q.SubmitBatch(ops)
	errs := make([]error, len(futs))
	for i, f := range futs {
		errs[i] = f.Wait()
	}
	if err := q.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := q.Stats()
	q.Close()
	return rec, errs, st
}

// flatten joins the recorder's applied batches into one op sequence.
func flatten(rec *recorder) []Op {
	var out []Op
	for _, b := range rec.batches {
		out = append(out, b...)
	}
	return out
}

func TestCancelPairsBasic(t *testing.T) {
	ops := []Op{
		{U: 1, V: 2, W: 10},
		{Delete: true, U: 1, V: 2},
		{U: 3, V: 4, W: 11},
	}
	rec, errs, st := oneWindow(t, ops, true)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	applied := flatten(rec)
	if len(applied) != 1 || applied[0].U != 3 || applied[0].Delete {
		t.Fatalf("applied %v, want only insert(3,4)", applied)
	}
	if st.Ops != 1 || st.Cancelled != 2 || st.Batches != 1 {
		t.Fatalf("stats %+v, want ops=1 cancelled=2 batches=1", st)
	}
}

func TestCancelPairsCanonicalKey(t *testing.T) {
	// The delete names the edge with swapped endpoints; it still cancels.
	ops := []Op{
		{U: 5, V: 2, W: 10},
		{Delete: true, U: 2, V: 5},
	}
	rec, errs, st := oneWindow(t, ops, true)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs %v", errs)
	}
	if len(flatten(rec)) != 0 || st.Ops != 0 || st.Batches != 0 || st.Cancelled != 2 {
		t.Fatalf("whole-window cancellation: applied %v, stats %+v", flatten(rec), st)
	}
}

func TestCancelPairsDoubleInsertBlocks(t *testing.T) {
	// A second insert of a pending edge makes its state engine-dependent:
	// nothing on that edge may cancel until a delete has applied.
	ops := []Op{
		{U: 1, V: 2, W: 10},
		{U: 1, V: 2, W: 11},
		{Delete: true, U: 1, V: 2},
		{U: 1, V: 2, W: 12},        // post-delete: pending again...
		{Delete: true, U: 1, V: 2}, // ...and this pair cancels
	}
	rec, _, st := oneWindow(t, ops, true)
	applied := flatten(rec)
	if len(applied) != 3 {
		t.Fatalf("applied %v, want the first three ops", applied)
	}
	if st.Ops != 3 || st.Cancelled != 2 {
		t.Fatalf("stats %+v, want ops=3 cancelled=2", st)
	}
}

func TestCancelPairsKeepRunWhole(t *testing.T) {
	// A cancelled pair buried inside an insert run must not split the run:
	// the two surviving inserts coalesce into one engine batch.
	ops := []Op{
		{U: 1, V: 2, W: 10},
		{U: 7, V: 8, W: 11},
		{Delete: true, U: 7, V: 8},
		{U: 3, V: 4, W: 12},
	}
	rec, _, st := oneWindow(t, ops, true)
	applied := flatten(rec)
	if len(applied) != 2 || applied[0].U != 1 || applied[1].U != 3 {
		t.Fatalf("applied %v, want inserts (1,2) and (3,4)", applied)
	}
	if st.Batches != 1 {
		t.Fatalf("stats %+v: surviving inserts should coalesce into one batch", st)
	}
}

func TestCancelPairsDeleteResets(t *testing.T) {
	// An applied (uncancelled) delete resets the edge: a later insert may
	// pend and cancel against its own delete.
	ops := []Op{
		{Delete: true, U: 1, V: 2},
		{U: 1, V: 2, W: 10},
		{Delete: true, U: 1, V: 2},
	}
	rec, _, st := oneWindow(t, ops, true)
	applied := flatten(rec)
	if len(applied) != 1 || !applied[0].Delete {
		t.Fatalf("applied %v, want only the leading delete", applied)
	}
	if st.Ops != 1 || st.Cancelled != 2 {
		t.Fatalf("stats %+v, want ops=1 cancelled=2", st)
	}
}

func TestCancelPairsSeparatedPairSurvives(t *testing.T) {
	// Off by default, and an insert+delete pair separated by another op on
	// the same edge never cancels even when enabled.
	ops := []Op{
		{U: 1, V: 2, W: 10},
		{Delete: true, U: 1, V: 2},
	}
	rec, _, st := oneWindow(t, ops, false)
	if len(flatten(rec)) != 2 || st.Cancelled != 0 || st.Ops != 2 {
		t.Fatalf("CancelPairs off: applied %v, stats %+v", flatten(rec), st)
	}
}

func TestCancelPairsErrorsStillReported(t *testing.T) {
	// Ops that survive cancellation keep their per-op engine errors.
	boom := errors.New("boom")
	rec := &recorder{failOn: func(op Op) error {
		if op.U == 3 {
			return boom
		}
		return nil
	}}
	q := NewWithConfig(rec, Config{Depth: 16, MaxBatch: 8, CancelPairs: true})
	defer q.Close()
	futs := q.SubmitBatch([]Op{
		{U: 1, V: 2, W: 10},
		{Delete: true, U: 1, V: 2},
		{U: 3, V: 4, W: 11},
	})
	if err := futs[0].Wait(); err != nil {
		t.Fatalf("cancelled insert: %v", err)
	}
	if err := futs[1].Wait(); err != nil {
		t.Fatalf("cancelled delete: %v", err)
	}
	if err := futs[2].Wait(); !errors.Is(err, boom) {
		t.Fatalf("surviving op error: %v", err)
	}
}

func TestCancelPairsAcrossSubmitForms(t *testing.T) {
	// Unit Submits and a SubmitBatch landing in one scooped window cancel
	// across submission forms. Holding the drainer busy on a first op makes
	// the rest accumulate into a single window.
	block := make(chan struct{})
	gated := make(chan struct{})
	rec := &recorder{}
	first := true
	rec.failOn = func(op Op) error {
		if first && op.U == 99 {
			first = false
			close(gated)
			<-block
		}
		return nil
	}
	q := NewWithConfig(rec, Config{Depth: 64, MaxBatch: 32, CancelPairs: true})
	defer q.Close()
	gate := q.Submit(Op{U: 99, V: 100, W: 1})
	<-gated // the drainer holds the gate op, so the rest share the next window
	f1 := q.Submit(Op{U: 1, V: 2, W: 10})
	bf := q.SubmitBatch([]Op{{Delete: true, U: 1, V: 2}, {U: 5, V: 6, W: 11}})
	close(block)
	if err := gate.Wait(); err != nil {
		t.Fatalf("gate: %v", err)
	}
	if err := f1.Wait(); err != nil {
		t.Fatalf("unit insert: %v", err)
	}
	for i, f := range bf {
		if err := f.Wait(); err != nil {
			t.Fatalf("batch op %d: %v", i, err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := q.Stats()
	if st.Cancelled != 2 {
		t.Fatalf("stats %+v: unit insert should cancel against batch delete", st)
	}
	applied := flatten(rec)
	// gate + surviving insert(5,6) only.
	if len(applied) != 2 || applied[1].U != 5 {
		t.Fatalf("applied %v, want gate then insert(5,6)", applied)
	}
}

func TestCancelPairsFlushBarrier(t *testing.T) {
	// An insert submitted before a Flush and its delete submitted while the
	// Flush waits land in one scooped window, with the flush marker between
	// them. The marker is a barrier: the insert applies before Flush
	// returns, and the pair does not cancel.
	block := make(chan struct{})
	gated := make(chan struct{})
	rec := &recorder{}
	first := true
	rec.failOn = func(op Op) error {
		if first && op.U == 99 {
			first = false
			close(gated)
			<-block
		}
		return nil
	}
	q := NewWithConfig(rec, Config{Depth: 64, MaxBatch: 32, CancelPairs: true})
	defer q.Close()
	gate := q.Submit(Op{U: 99, V: 100, W: 1})
	<-gated // the drainer holds the gate op, so the channel is empty
	ins := q.Submit(Op{U: 1, V: 2, W: 10})
	flushed := make(chan error)
	go func() { flushed <- q.Flush() }()
	for len(q.ch) != 2 {
		runtime.Gosched() // wait for the flush marker behind the insert
	}
	del := q.Submit(Op{Delete: true, U: 1, V: 2})
	close(block)
	if err := <-flushed; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rec.mu.Lock()
	applied := flatten(rec)
	rec.mu.Unlock()
	if len(applied) < 2 || applied[1] != (Op{U: 1, V: 2, W: 10}) {
		t.Fatalf("applied %v by Flush's return, want gate then insert(1,2)", applied)
	}
	for i, f := range []*Future{gate, ins, del} {
		if err := f.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	if st := q.Stats(); st.Ops != 3 || st.Cancelled != 0 {
		t.Fatalf("stats %+v, want ops=3 cancelled=0", st)
	}
}
