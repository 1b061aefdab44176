package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"parmsf"
	"parmsf/internal/stats"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// This file implements the E16 mixed reader/writer serving scenario: p
// reader goroutines hammer snapshot queries while q writer goroutines
// stream conflict-free churn through the Submit ingest queue, whose single
// drainer coalesces whatever accumulated into engine batches.
// buildReadWritePoints measures it; the table formats its points.

// rwSample is one run's aggregate of the serving scenario.
type rwSample struct {
	readsPerSec float64 // snapshot queries completed per second
	opsPerSec   float64 // write ops applied per second
	opsPerBatch float64 // coalescing factor: ops per drained engine batch
	epochs      float64 // snapshot epochs published
	nsPerOp     float64 // wall nanoseconds per write op, end to end
}

// runReadWrite executes one serving run: readers spin on Snapshot queries
// (two point queries and one aggregate per acquisition) from before the
// first write to after the last, writers submit their disjoint streams
// through the ingest queue, and the run is timed from first submission to
// Flush. With submitChunk == 0 writers call Submit per op; otherwise they
// group submitChunk consecutive ops into one SubmitBatch call, which lands
// the whole group in one queue slot and hands the drainer pre-batched runs
// to coalesce. The workload is conflict-free (disjoint vertex intervals),
// so any error observed on a future is a correctness failure and panics.
func runReadWrite(n, workers, readers, submitChunk int, streams []workload.Stream) rwSample {
	f := parmsf.MustNew(n, parmsf.Options{
		Workers:  workers,
		MaxEdges: 4 * n,
		// Deep queue + modest batch bound: writers should never stall on
		// backpressure, while per-batch latency stays bounded.
		QueueDepth: 4096,
		MaxBatch:   256,
	})
	defer f.Close()

	var stop atomic.Bool
	var reads atomic.Int64
	var started, rg sync.WaitGroup
	started.Add(readers)
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := xrand.New(uint64(9000 + 31*r))
			started.Done()
			var cnt int64
			sink := 0 // consumed below so the queries cannot be elided
			for !stop.Load() {
				s := f.Snapshot()
				u, v := rng.Intn(n), rng.Intn(n)
				if s.Connected(u, v) {
					sink++
				}
				sink += s.ComponentOf(u)
				sink += s.Components()
				s.Release()
				cnt += 3 // fixed queries per acquisition, independent of answers
			}
			_ = sink
			reads.Add(cnt)
		}(r)
	}
	started.Wait()

	totalOps := 0
	for _, st := range streams {
		totalOps += len(st.Ops)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, st := range streams {
		wg.Add(1)
		go func(st workload.Stream) {
			defer wg.Done()
			var last *parmsf.Pending
			if submitChunk > 0 {
				chunk := make([]parmsf.Update, 0, submitChunk)
				flushChunk := func() {
					if len(chunk) == 0 {
						return
					}
					ps := f.SubmitBatch(chunk)
					last = ps[len(ps)-1]
					chunk = chunk[:0]
				}
				for _, op := range st.Ops {
					if op.Kind == workload.OpInsert {
						chunk = append(chunk, parmsf.Update{U: op.U, V: op.V, W: op.W})
					} else {
						chunk = append(chunk, parmsf.Update{Delete: true, U: op.U, V: op.V})
					}
					if len(chunk) == submitChunk {
						flushChunk()
					}
				}
				flushChunk()
			} else {
				for _, op := range st.Ops {
					if op.Kind == workload.OpInsert {
						last = f.Submit(parmsf.Update{U: op.U, V: op.V, W: op.W})
					} else {
						last = f.Submit(parmsf.Update{Delete: true, U: op.U, V: op.V})
					}
				}
			}
			// FIFO: the last future resolving means the whole stream
			// applied; the conflict-free workload admits no errors.
			if last != nil {
				if err := last.Wait(); err != nil {
					panic(fmt.Sprintf("experiments: E16 write failed: %v", err))
				}
			}
		}(st)
	}
	wg.Wait()
	if err := f.Flush(); err != nil {
		panic(fmt.Sprintf("experiments: E16 flush: %v", err))
	}
	elapsed := time.Since(t0)
	stop.Store(true)
	rg.Wait()

	ops, batches := f.IngestStats()
	if int(ops) != totalOps {
		panic(fmt.Sprintf("experiments: E16 applied %d ops, submitted %d", ops, totalOps))
	}
	s := f.Snapshot()
	epochs := s.Epoch()
	s.Release()
	sec := elapsed.Seconds()
	out := rwSample{
		readsPerSec: float64(reads.Load()) / sec,
		opsPerSec:   float64(totalOps) / sec,
		epochs:      float64(epochs),
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(totalOps),
	}
	if batches > 0 {
		out.opsPerBatch = float64(ops) / float64(batches)
	}
	return out
}

// rwConfig is the E16 sweep: reader counts against a fixed writer pool,
// each run once with per-op Submit and once with writers grouping ops into
// SubmitBatch calls of rwSubmitChunk.
var rwReaders = []int{1, 2, 4, 8}

const rwWriters = 2
const rwEngineWorkers = 2
const rwSubmitChunk = 64

// E16ReadWrite — concurrent query plane: snapshot-read throughput against
// ingest-write cadence while q writers stream conflict-free churn through
// the coalescing queue. Reads are lock-free snapshot queries, so reader
// throughput should hold (and scale with spare cores) as readers are
// added, while write cadence is governed by batch coalescing — the
// ops/batch column is the amortization factor the queue wins over
// synchronous per-op calls. Each reader count runs twice: writers
// submitting per op, and writers grouping ops into SubmitBatch calls. On
// single-kind streams a submitted group lands as one engine batch; the
// churn streams here flip between insert and delete every ~2 ops, and the
// drainer splits engine batches at kind flips, so ops/batch is governed by
// the stream's same-kind run lengths in both modes — batched submission
// buys the cheaper submission path (one channel slot per group), visible
// as write throughput rather than a larger coalescing factor. Attainable
// parallel overlap is capped by GOMAXPROCS; on a single-core host readers
// and the drainer time-slice.
func E16ReadWrite(w io.Writer, rep *BatchReport) {
	n := rep.ReadWriteN
	tb := stats.NewTable(
		fmt.Sprintf("E16 — serving plane: %d readers vs %d ingest writers, n=%d, %d ops/writer (engine workers=%d, GOMAXPROCS=%d, repeat=%d)",
			rwReaders[len(rwReaders)-1], rwWriters, n, n, rwEngineWorkers, rep.GOMAXPROCS, rep.Repeat),
		"readers", "submit", "reads/s", "(med)", "write ops/s", "(med)", "ops/batch", "epochs")
	for _, p := range rep.ReadWrite {
		mode := "per-op"
		if p.SubmitChunk > 0 {
			mode = fmt.Sprintf("batch%d", p.SubmitChunk)
		}
		tb.Row(p.Readers, mode, p.ReadsPerSec, p.ReadsPerSecMed, p.WriteOpsPerSec, p.WriteOpsMed, p.OpsPerBatch, p.Epochs)
	}
	tb.Fprint(w)
	fmt.Fprintln(w, "theory: reads/s holds or grows with readers (lock-free snapshots; writers unaffected); ops/batch > 1 is the ingest queue's coalescing amortization — engine batches split at kind flips, so on mixed churn it tracks the stream's same-kind run lengths in both submit modes and batch submission shows up as cheaper submission, not bigger batches; epochs <= batches (no-op batches publish nothing)")
	fmt.Fprintln(w)
}

// ReadWritePoint is one reader-count measurement of the E16 serving
// scenario for BENCH_batch.json: snapshot-query and write throughput
// (best and median across -repeat runs), the coalescing factor, and the
// epochs published. SubmitChunk is the writers' SubmitBatch group size (0:
// per-op Submit). Host records the parallelism the entry ran under.
type ReadWritePoint struct {
	Readers     int `json:"readers"`
	Writers     int `json:"writers"`
	SubmitChunk int `json:"submit_chunk"`
	Host
	ReadsPerSec    float64 `json:"reads_per_sec"`
	ReadsPerSecMed float64 `json:"reads_per_sec_median"`
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	WriteOpsMed    float64 `json:"write_ops_per_sec_median"`
	WriteNsPerOp   float64 `json:"write_ns_per_op"`
	OpsPerBatch    float64 `json:"ops_per_batch"`
	Epochs         float64 `json:"epochs"`
}

// buildReadWritePoints runs the E16 sweep: each reader count with per-op
// and with batched submission, Repeat runs each.
func buildReadWritePoints(sc Scale) []ReadWritePoint {
	n := batchSizesFor(sc).readwriteN
	host := hostNow()
	streams := workload.WriterStreams(n, rwWriters, n, uint64(n)+1607)
	var out []ReadWritePoint
	for _, readers := range rwReaders {
		for _, chunk := range []int{0, rwSubmitChunk} {
			rs := repeat(Repeat, func(int) rwSample {
				return runReadWrite(n, rwEngineWorkers, readers, chunk, streams)
			})
			reads := rs.best(func(s rwSample) float64 { return s.readsPerSec }, rate)
			writes := rs.best(func(s rwSample) float64 { return s.opsPerSec }, rate)
			out = append(out, ReadWritePoint{
				Readers:        readers,
				Writers:        rwWriters,
				SubmitChunk:    chunk,
				Host:           host,
				ReadsPerSec:    reads.best,
				ReadsPerSecMed: reads.med,
				WriteOpsPerSec: writes.best,
				WriteOpsMed:    writes.med,
				WriteNsPerOp:   rs.best(func(s rwSample) float64 { return s.nsPerOp }, cost).best,
				OpsPerBatch:    rs.best(func(s rwSample) float64 { return s.opsPerBatch }, rate).best,
				Epochs:         rs.best(func(s rwSample) float64 { return s.epochs }, rate).best,
			})
		}
	}
	return out
}
