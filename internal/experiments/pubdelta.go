package experiments

import (
	"fmt"
	"io"
	"runtime"

	"parmsf"
	"parmsf/internal/stats"
	"parmsf/internal/workload"
)

// This file implements the E18 incremental-publication scenario: large
// vertex sets under streams of tiny update batches (the cell-churn
// workload), measured once through the O(delta) snapshot publisher and
// once with the delta path disabled (SnapshotRebaseEvery: 1, every epoch a
// full rebase sweep). Publication cost is read from the publisher's own
// PublishStats counters — the wall time spent strictly inside publication
// — so the engine's O(sqrt n) update work cannot contaminate the shape:
// delta publication should stay flat as n grows 100x while the sweep grows
// linearly with it. buildPublishPoints measures it; the table formats its
// points.

// Cell-churn geometry: every batch is 1..pdMaxBatch forest mutations
// confined to one pdCell-vertex cell, so cut sides (and hence per-epoch
// patch sizes) are bounded independent of n.
const (
	pdCell     = 64
	pdMaxBatch = 8
)

// pdSizesFor returns the E18 vertex counts and batch counts per scale.
// Full spans the two decades of the flatness claim (1e4 -> 1e6). The sweep
// arm gets a shorter stream: each of its epochs costs O(n), so a handful
// suffice for a stable per-epoch average, while the delta arm needs enough
// epochs to cross rebase boundaries.
func pdSizesFor(sc Scale) (ns []int, batches, sweepBatches int) {
	switch sc {
	case Full:
		return []int{10000, 100000, 1000000}, 300, 30
	case Tiny:
		return []int{1 << 11, 1 << 12}, 40, 10
	}
	return []int{1 << 14, 1 << 16, 1 << 18}, 200, 20
}

// pdSample is one run's aggregate of the publication scenario. On the
// delta arm nsPerEpoch averages over delta-path epochs only (the rare
// capacity-driven rebases are counted separately — folding their O(n)
// sweeps into the mean would swamp the O(delta) figure the experiment
// isolates); on the sweep arm every epoch is a sweep and all are averaged.
type pdSample struct {
	nsPerEpoch  float64 // publication wall ns per epoch (see above)
	allocsPerEp float64 // heap allocations per epoch across the whole churn
	epochs      float64 // epochs published by the churn
	deltaEpochs float64 // epochs that went through the O(delta) path
	rebases     float64 // epochs that fell back to a full sweep
	patches     float64 // label-patch entries written by the delta path
}

// runPublish bulk-loads the stream's base forest, drives its batches
// through the public batch API (each maximal same-kind run is one engine
// batch, hence one published epoch — every cell-churn op is a forest
// mutation), and reads the publication counters accumulated by the churn.
// With sweep set, the delta path is disabled and every epoch pays the full
// O(n) rebase.
func runPublish(bs workload.BatchStream, sweep bool) pdSample {
	n := bs.N
	opt := parmsf.Options{MaxEdges: 2 * n}
	if sweep {
		opt.SnapshotRebaseEvery = 1
	}
	edges := make([]parmsf.Edge, len(bs.Base))
	for i, e := range bs.Base {
		edges[i] = parmsf.Edge{U: e.U, V: e.V, W: e.W}
	}
	f, errs := parmsf.MustBuild(n, edges, opt)
	if errs != nil {
		panic(fmt.Sprintf("experiments: E18 base load failed: %v", errs))
	}
	defer f.Close()

	base := f.PublishStats()
	insBuf := make([]parmsf.Edge, 0, pdMaxBatch)
	delBuf := make([]parmsf.EdgeKey, 0, pdMaxBatch)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, ops := range bs.Batches {
		for i := 0; i < len(ops); {
			j := i
			for j < len(ops) && ops[j].Kind == ops[i].Kind {
				j++
			}
			if ops[i].Kind == workload.OpInsert {
				insBuf = insBuf[:0]
				for _, op := range ops[i:j] {
					insBuf = append(insBuf, parmsf.Edge{U: op.U, V: op.V, W: op.W})
				}
				if errs := f.InsertEdges(insBuf); errs != nil {
					panic(fmt.Sprintf("experiments: E18 insert failed: %v", errs))
				}
			} else {
				delBuf = delBuf[:0]
				for _, op := range ops[i:j] {
					delBuf = append(delBuf, parmsf.EdgeKey{U: op.U, V: op.V})
				}
				if errs := f.DeleteEdges(delBuf); errs != nil {
					panic(fmt.Sprintf("experiments: E18 delete failed: %v", errs))
				}
			}
			i = j
		}
	}
	runtime.ReadMemStats(&m1)
	st := f.PublishStats()

	epochs := st.Epochs - base.Epochs
	if epochs == 0 {
		panic("experiments: E18 churn published no epochs")
	}
	out := pdSample{
		nsPerEpoch:  float64(st.PublishNs-base.PublishNs) / float64(epochs),
		allocsPerEp: float64(m1.Mallocs-m0.Mallocs) / float64(epochs),
		epochs:      float64(epochs),
		deltaEpochs: float64(st.DeltaEpochs - base.DeltaEpochs),
		rebases:     float64(st.Rebases - base.Rebases),
		patches:     float64(st.PatchEntries - base.PatchEntries),
	}
	if sweep && out.deltaEpochs != 0 {
		panic("experiments: E18 sweep run took the delta path")
	}
	if !sweep {
		if out.deltaEpochs == 0 {
			panic("experiments: E18 delta run never took the delta path")
		}
		out.nsPerEpoch = float64(st.DeltaNs-base.DeltaNs) / out.deltaEpochs
	}
	return out
}

// E18PublishDelta — incremental snapshot publication: wall nanoseconds
// spent inside publication per epoch, as n grows with the per-epoch forest
// delta held fixed (small intra-cell batches), through the O(delta)
// versioned-label path versus the full O(n) rebase sweep. The delta path
// patches only the labels a cut flipped and appends/tombstones only the
// edges the epoch touched, so its cost tracks the delta (flat in n); the
// sweep re-exports every vertex, so its cost tracks n. Rebases on the
// delta row are the capacity-driven fallbacks (~n/8 patch budget per era)
// and stay rare under bounded churn. The allocs column counts heap
// allocations per epoch across the entire update (engine work included) —
// publication itself is allocation-free on both paths (see the alloc
// gates in internal/snapshot).
func E18PublishDelta(w io.Writer, rep *BatchReport) {
	_, batches, _ := pdSizesFor(rep.scale())
	tb := stats.NewTable(
		fmt.Sprintf("E18 — incremental publication: publication ns/epoch, %d batches of <=%d ops in %d-vertex cells (GOMAXPROCS=%d, repeat=%d)",
			batches, pdMaxBatch, pdCell, rep.GOMAXPROCS, rep.Repeat),
		"n", "epochs", "delta ns/ep", "(med)", "sweep ns/ep", "(med)", "sweep/delta", "delta eps", "rebases", "patches", "allocs/ep")
	var xs, dns, sns []float64
	for i := 0; i+1 < len(rep.Publish); i += 2 {
		d, s := rep.Publish[i], rep.Publish[i+1]
		tb.Row(d.N, d.Epochs, d.NsPerEpoch, d.NsPerEpochMed, s.NsPerEpoch, s.NsPerEpochMed,
			s.NsPerEpoch/d.NsPerEpoch, d.DeltaEpochs, d.Rebases, d.PatchEntries, d.AllocsPerEpoch)
		xs = append(xs, float64(d.N))
		dns = append(dns, d.NsPerEpoch)
		sns = append(sns, s.NsPerEpoch)
	}
	tb.Fprint(w)
	de, _ := stats.FitPower(xs, dns)
	se, _ := stats.FitPower(xs, sns)
	fmt.Fprintf(w, "flatness (max/min over n): delta %.2f, sweep %.2f; fitted exponents: delta %.3f (theory: ~0, O(delta) per epoch), sweep %.3f (theory: ~1, O(n) per epoch)\n\n",
		stats.RatioSpread(dns), stats.RatioSpread(sns), de, se)
}

// PublishPoint is one (n, mode) measurement of the E18 publication
// scenario for BENCH_batch.json: publication wall ns per epoch (minimum
// and median across -repeat runs), allocations per epoch across the whole
// update (minimum across runs), and the publisher's counter deltas. Mode
// is "delta" (default capacity-driven schedule) or "sweep"
// (SnapshotRebaseEvery: 1, delta path disabled).
type PublishPoint struct {
	N    int    `json:"n"`
	Mode string `json:"mode"`
	Host
	NsPerEpoch     float64 `json:"ns_per_epoch"`
	NsPerEpochMed  float64 `json:"ns_per_epoch_median"`
	AllocsPerEpoch float64 `json:"allocs_per_epoch"`
	Epochs         float64 `json:"epochs"`
	DeltaEpochs    float64 `json:"delta_epochs"`
	Rebases        float64 `json:"rebases"`
	PatchEntries   float64 `json:"patch_entries"`
}

// buildPublishPoints runs the E18 sweep: at each n, the delta arm and then
// the sweep arm, Repeat runs each. The counters are deterministic across
// runs, so they come from the first; timing and allocations are not.
func buildPublishPoints(sc Scale) []PublishPoint {
	ns, batches, sweepBatches := pdSizesFor(sc)
	host := hostNow()
	var out []PublishPoint
	for _, n := range ns {
		for _, sweep := range []bool{false, true} {
			nb, mode := batches, "delta"
			if sweep {
				nb, mode = sweepBatches, "sweep"
			}
			bs := workload.SmallBatchChurn(n, pdCell, nb, pdMaxBatch, uint64(n)+1803)
			rs := repeat(Repeat, func(int) pdSample { return runPublish(bs, sweep) })
			pub := rs.best(func(s pdSample) float64 { return s.nsPerEpoch }, cost)
			out = append(out, PublishPoint{
				N:              n,
				Mode:           mode,
				Host:           host,
				NsPerEpoch:     pub.best,
				NsPerEpochMed:  pub.med,
				AllocsPerEpoch: rs.best(func(s pdSample) float64 { return s.allocsPerEp }, cost).best,
				Epochs:         rs[0].epochs,
				DeltaEpochs:    rs[0].deltaEpochs,
				Rebases:        rs[0].rebases,
				PatchEntries:   rs[0].patches,
			})
		}
	}
	return out
}
