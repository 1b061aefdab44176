package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"parmsf"
	"parmsf/cluster"
	"parmsf/internal/stats"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// This file implements the E20 sharded-cluster serving scenario: the same
// total churn volume routed through cluster.New with k shards, one writer
// per shard streaming conflict-free churn aligned with the contiguous
// placement (workload.ShardedStreams). Each run loads the writers'
// connected degree-3 bases untimed (submit + Flush before the clock
// starts) and times only the churn phase, so the measured regime is
// steady-state churn on warm shard-sized components — where tree-edge
// deletions force replacement searches whose cost scales with the shard
// size, the term sharding actually shrinks. The write phase is
// writer-only so the aggregate ingest rate is measured clean;
// composed-read throughput is measured in a separate phase with the
// writers streaming. buildClusterPoints measures it; the table formats its
// points.

// clusterSubmitChunk is the writers' SubmitBatch group size (as E16's
// batched arm).
const clusterSubmitChunk = 64

// clusterReaders is the reader pool of the read-rate phase.
const clusterReaders = 2

// clusterKs and clusterCross are the E20 sweep: shard counts against
// cross-shard traffic shares (permille of inserts targeting an edge into
// the next shard).
var clusterKs = []int{1, 2, 4}
var clusterCross = []int{0, 100}

// clusterShardOpts mirrors the E16 serving options per shard: deep queue,
// modest batch bound, and (optionally) insert+delete pair cancellation.
func clusterShardOpts(n int, coalesce bool) cluster.Options {
	return cluster.Options{Shard: parmsf.Options{
		MaxEdges:       4 * n,
		QueueDepth:     4096,
		MaxBatch:       256,
		CoalesceCancel: coalesce,
	}}
}

// clSample is one write-phase run's aggregate.
type clSample struct {
	opsPerSec   float64 // write ops submitted per second (applied + cancelled)
	opsPerBatch float64 // coalescing factor: applied ops per engine batch
	cancelled   float64 // ops annihilated by pair cancellation
}

// clusterSubmit streams one op slice per writer through the cluster, one
// goroutine per writer, grouping clusterSubmitChunk consecutive ops into
// one SubmitBatch call (the cluster fans each group out per touched
// shard). Each writer waits on its final future; per-forest FIFO plus the
// caller's Flush covers the rest. The workload is conflict-free, so any
// observed error is a correctness failure and panics.
func clusterSubmit(c *cluster.Cluster, opsets [][]workload.Op) {
	var wg sync.WaitGroup
	for _, ops := range opsets {
		wg.Add(1)
		go func(ops []workload.Op) {
			defer wg.Done()
			var last *parmsf.Pending
			chunk := make([]parmsf.Update, 0, clusterSubmitChunk)
			flushChunk := func() {
				if len(chunk) == 0 {
					return
				}
				ps := c.SubmitBatch(chunk)
				last = ps[len(ps)-1]
				chunk = chunk[:0]
			}
			for _, op := range ops {
				if op.Kind == workload.OpInsert {
					chunk = append(chunk, parmsf.Update{U: op.U, V: op.V, W: op.W})
				} else {
					chunk = append(chunk, parmsf.Update{Delete: true, U: op.U, V: op.V})
				}
				if len(chunk) == clusterSubmitChunk {
					flushChunk()
				}
			}
			flushChunk()
			if last != nil {
				if err := last.Wait(); err != nil {
					panic(fmt.Sprintf("experiments: E20 write failed: %v", err))
				}
			}
		}(ops)
	}
	wg.Wait()
}

// clusterPhases splits the sharded streams into the untimed load sets and
// the timed churn sets, plus the total churn op count.
func clusterPhases(streams []workload.ShardedStream) (loads, churns [][]workload.Op, churnOps int) {
	for _, st := range streams {
		loads = append(loads, st.Load)
		churns = append(churns, st.Churn)
		churnOps += len(st.Churn)
	}
	return loads, churns, churnOps
}

// clusterLoad streams the base graphs in and flushes, leaving the cluster
// warm: every shard holds its connected degree-3 base before the clock
// starts.
func clusterLoad(c *cluster.Cluster, loads [][]workload.Op) {
	clusterSubmit(c, loads)
	if err := c.Flush(); err != nil {
		panic(fmt.Sprintf("experiments: E20 load flush: %v", err))
	}
}

// runClusterWrite executes one writer-only run: the bases load untimed,
// then k writers stream their shard-aligned churn through the warm
// cluster, timed from first churn submission to Flush. Every timed op
// must end applied or pair-cancelled.
func runClusterWrite(n, k int, coalesce bool, streams []workload.ShardedStream) clSample {
	c := cluster.MustNew(n, k, clusterShardOpts(n, coalesce))
	defer c.Close()
	loads, churns, churnOps := clusterPhases(streams)
	clusterLoad(c, loads)
	ops0, batches0, cancelled0 := c.IngestStats()
	t0 := time.Now()
	clusterSubmit(c, churns)
	if err := c.Flush(); err != nil {
		panic(fmt.Sprintf("experiments: E20 flush: %v", err))
	}
	elapsed := time.Since(t0)
	ops, batches, cancelled := c.IngestStats()
	ops, batches, cancelled = ops-ops0, batches-batches0, cancelled-cancelled0
	if int(ops+cancelled) != churnOps {
		panic(fmt.Sprintf("experiments: E20 applied %d + cancelled %d ops, submitted %d", ops, cancelled, churnOps))
	}
	out := clSample{
		opsPerSec: float64(churnOps) / elapsed.Seconds(),
		cancelled: float64(cancelled),
	}
	if batches > 0 {
		out.opsPerBatch = float64(ops) / float64(batches)
	}
	return out
}

// runClusterReads executes one read-rate run: the bases load untimed,
// then clusterReaders readers spin on composed global queries (Connected,
// Weight, Components — three per iteration) from before the first churn
// op to after the last, while the same writers stream through the warm
// cluster. Returns composed reads completed per second of the churn
// window.
func runClusterReads(n, k int, streams []workload.ShardedStream) float64 {
	c := cluster.MustNew(n, k, clusterShardOpts(n, true))
	defer c.Close()
	loads, churns, _ := clusterPhases(streams)
	clusterLoad(c, loads)
	var stop atomic.Bool
	var reads atomic.Int64
	var started, rg sync.WaitGroup
	started.Add(clusterReaders)
	for r := 0; r < clusterReaders; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := xrand.New(uint64(20000 + 37*r))
			started.Done()
			var cnt int64
			sink := 0 // consumed below so the queries cannot be elided
			for !stop.Load() {
				u, v := rng.Intn(n), rng.Intn(n)
				if c.Connected(u, v) {
					sink++
				}
				sink += int(c.Weight() & 1)
				sink += c.Components()
				cnt += 3
			}
			_ = sink
			reads.Add(cnt)
		}(r)
	}
	started.Wait()
	t0 := time.Now()
	clusterSubmit(c, churns)
	if err := c.Flush(); err != nil {
		panic(fmt.Sprintf("experiments: E20 read-phase flush: %v", err))
	}
	elapsed := time.Since(t0)
	stop.Store(true)
	rg.Wait()
	return float64(reads.Load()) / elapsed.Seconds()
}

// ClusterPoint is one (k, cross-share) measurement of the E20 sharded
// cluster scenario for BENCH_batch.json. WriteOpsPerSec is the aggregate
// ingest rate of the writer-only phase with pair cancellation OFF — every
// submitted op reaches a shard engine, so the column measures engine
// throughput and SpeedupVsK1 (over the k=1 point of the same cross share)
// measures sharding alone. The Coalesce* fields are the same phase rerun
// with CoalesceCancel on: on deep scooped windows most of the churn
// annihilates in the queue (CoalesceCancelled of TotalOps), which is the
// coalescer's gain, reported alongside rather than mixed into the
// throughput headline. ReadsPerSec is the composed-query rate of the
// separate read phase. Host records the parallelism the entry ran under.
type ClusterPoint struct {
	K             int `json:"k"`
	CrossPermille int `json:"cross_permille"`
	Writers       int `json:"writers"`
	TotalOps      int `json:"total_ops"`
	SubmitChunk   int `json:"submit_chunk"`
	Host
	WriteOpsPerSec      float64 `json:"write_ops_per_sec"`
	WriteOpsMed         float64 `json:"write_ops_per_sec_median"`
	WriteNsPerOp        float64 `json:"write_ns_per_op"`
	SpeedupVsK1         float64 `json:"speedup_vs_k1"`
	OpsPerBatch         float64 `json:"ops_per_batch"`
	CoalesceOpsPerSec   float64 `json:"coalesce_ops_per_sec"`
	CoalesceCancelled   float64 `json:"coalesce_cancelled"`
	CoalesceOpsPerBatch float64 `json:"coalesce_ops_per_batch"`
	ReadsPerSec         float64 `json:"reads_per_sec"`
	ReadsPerSecMed      float64 `json:"reads_per_sec_median"`
}

// buildClusterPoints runs the E20 sweep: for each cross-traffic share and
// shard count, the same total churn volume (~4n ops) split across k
// writers over warm per-shard bases, measured writer-only with
// cancellation off (the throughput headline) and on (the coalescer gain),
// then the read phase; Repeat runs of all three. Throughput best and
// median, as E16.
func buildClusterPoints(sc Scale) []ClusterPoint {
	n := batchSizesFor(sc).clusterN
	host := hostNow()
	total := 4 * n
	type clRun struct {
		write, coalesce clSample
		reads           float64
	}
	var out []ClusterPoint
	for _, cross := range clusterCross {
		var base float64
		for _, k := range clusterKs {
			streams := workload.ShardedStreams(n, k, total/k, cross, uint64(n)+2011)
			_, _, churnOps := clusterPhases(streams)
			rs := repeat(Repeat, func(int) clRun {
				return clRun{
					write:    runClusterWrite(n, k, false, streams),
					coalesce: runClusterWrite(n, k, true, streams),
					reads:    runClusterReads(n, k, streams),
				}
			})
			writes := rs.best(func(r clRun) float64 { return r.write.opsPerSec }, rate)
			reads := rs.best(func(r clRun) float64 { return r.reads }, rate)
			p := ClusterPoint{
				K:                   k,
				CrossPermille:       cross,
				Writers:             k,
				TotalOps:            churnOps,
				SubmitChunk:         clusterSubmitChunk,
				Host:                host,
				WriteOpsPerSec:      writes.best,
				WriteOpsMed:         writes.med,
				WriteNsPerOp:        1e9 / writes.best,
				OpsPerBatch:         rs.best(func(r clRun) float64 { return r.write.opsPerBatch }, rate).best,
				CoalesceOpsPerSec:   rs.best(func(r clRun) float64 { return r.coalesce.opsPerSec }, rate).best,
				CoalesceCancelled:   rs.best(func(r clRun) float64 { return r.coalesce.cancelled }, rate).best,
				CoalesceOpsPerBatch: rs.best(func(r clRun) float64 { return r.coalesce.opsPerBatch }, rate).best,
				ReadsPerSec:         reads.best,
				ReadsPerSecMed:      reads.med,
			}
			if k == 1 {
				base = p.WriteOpsPerSec
			}
			if base > 0 {
				p.SpeedupVsK1 = p.WriteOpsPerSec / base
			}
			out = append(out, p)
		}
	}
	return out
}

// E20Cluster — sharded multi-forest cluster: aggregate write throughput
// and composed-read rate versus shard count on shard-aligned churn over
// warm connected degree-3 bases (loaded untimed). Each shard is a full
// forest over n/k vertices, so the replacement searches that dominate
// warm churn shrink with the shard count (the Theorem 1.2 sqrt(n log n)
// term is per shard) and disjoint streams never contend — the aggregate ingest rate grows
// with k even on one core, and real cores add drainer overlap on top. The
// cross arm routes a share of inserts through the coordinator forest,
// which serializes that share. The main columns run with pair
// cancellation off so every op reaches an engine; the coalesce columns
// rerun the phase with CoalesceCancel on, where deep scooped windows let
// most of the churn annihilate in the queue before touching an engine.
// Reads compose one pinned snapshot per shard and are measured in a
// separate phase so the write column stays writer-only.
func E20Cluster(w io.Writer, rep *BatchReport) {
	n := rep.ClusterN
	tb := stats.NewTable(
		fmt.Sprintf("E20 — sharded cluster: ~%d churn ops on warm degree-3 bases across k shard-aligned writers, n=%d (chunk=%d, readers=%d, GOMAXPROCS=%d, repeat=%d)",
			4*n, n, clusterSubmitChunk, clusterReaders, rep.GOMAXPROCS, rep.Repeat),
		"k", "cross ‰", "write ops/s", "(med)", "vs k=1", "ops/batch", "coalesce ops/s", "cancelled", "reads/s", "(med)")
	for _, p := range rep.Cluster {
		tb.Row(p.K, p.CrossPermille, p.WriteOpsPerSec, p.WriteOpsMed, p.SpeedupVsK1,
			p.OpsPerBatch, p.CoalesceOpsPerSec, p.CoalesceCancelled, p.ReadsPerSec, p.ReadsPerSecMed)
	}
	tb.Fprint(w)
	fmt.Fprintln(w, "theory: write ops/s grows near-linearly with k on disjoint churn (per-shard sqrt((n/k) log(n/k)) update cost; spare cores add overlap); cross traffic caps scaling at the shared coordinator; reads/s is the composed-view rate — cached until any shard publishes, recomposed O(n) after")
	fmt.Fprintln(w)
}
