package experiments

import (
	"fmt"
	"io"
	"time"

	"parmsf"
	"parmsf/internal/stats"
	"parmsf/internal/workload"
)

// This file implements the E17 cold-start comparison: the parallel bulk
// constructor (parmsf.Build — static filter-Kruskal classification plus
// direct engine-state construction) against the two incremental ways of
// loading the same edge set: one giant InsertEdges batch and a per-edge
// Insert loop. The incremental arms pay per-tree-edge tour surgery and
// O(J) vector recomputation for every intermediate forest state, so their
// cost per edge grows with n; the bulk path builds only the final state.
//
// The incremental arms are minutes-long at the headline sizes (per-edge at
// m=1e6 extrapolates to hours on a single core), so they are measured once
// at a capped size and scaled linearly to the headline m for the speedup
// columns. Linear scaling understates the true incremental cost — per-edge
// ns/edge grows like sqrt(n log n) and n grows with m — so every estimated
// speedup is a lower bound; the cap-size row itself is a fully measured
// head-to-head. buildBulkPoints measures it; the table formats its points.

// bulkSizes are the per-scale problem sizes of the E17 measurement: the
// headline edge counts the bulk constructor runs at, and the cap the
// incremental arms are actually measured at.
type bulkSizes struct {
	ms  []int // headline sizes (bulk measured directly at each)
	cap int   // incremental arms measured at min(ms[0], cap)
}

func bulkSizesFor(sc Scale) bulkSizes {
	switch sc {
	case Full:
		return bulkSizes{ms: []int{100_000, 1_000_000}, cap: 50_000}
	case Tiny:
		return bulkSizes{ms: []int{1 << 12}, cap: 1 << 12}
	}
	return bulkSizes{ms: []int{100_000, 1_000_000}, cap: 20_000}
}

// bulkRepeat bounds the repeat count of one E17 arm: the cheap bulk arm
// honors -repeat below the largest sizes, the minutes-long incremental
// arms run once (their single value doubles as the median).
func bulkRepeat(m int, incremental bool) int {
	if incremental || m > 200_000 {
		return 1
	}
	return Repeat
}

// mkBulkEdges builds the deterministic E17 edge set: a uniform sparse
// simple edge set with m = 10n and pairwise-distinct weights.
func mkBulkEdges(m int) (int, []parmsf.Edge) {
	n := m / 10
	if n < 64 {
		n = 64
	}
	base := workload.RandomSparse(n, m, uint64(m)+1709)
	edges := make([]parmsf.Edge, len(base))
	for i, e := range base {
		edges[i] = parmsf.Edge{U: e.U, V: e.V, W: e.W}
	}
	return n, edges
}

// timeBulkBuild measures one parmsf.Build of the whole edge set
// (nanoseconds, best/median across runs).
func timeBulkBuild(n int, edges []parmsf.Edge, r int) sample {
	return repeat(r, func(int) float64 {
		t0 := time.Now()
		f, errs := parmsf.MustBuild(n, edges, parmsf.Options{MaxEdges: len(edges)})
		if errs != nil {
			panic(fmt.Sprintf("experiments: E17 build errors: %v", errs))
		}
		ns := float64(time.Since(t0).Nanoseconds())
		f.Close()
		return ns
	}).best(itself, cost)
}

// timeGiantInsert measures one InsertEdges of the whole edge set into a
// fresh forest (nanoseconds).
func timeGiantInsert(n int, edges []parmsf.Edge, r int) sample {
	return repeat(r, func(int) float64 {
		f := parmsf.MustNew(n, parmsf.Options{MaxEdges: len(edges)})
		defer f.Close()
		t0 := time.Now()
		if errs := f.InsertEdges(edges); errs != nil {
			panic(fmt.Sprintf("experiments: E17 giant insert errors: %v", errs))
		}
		return float64(time.Since(t0).Nanoseconds())
	}).best(itself, cost)
}

// timePerEdgeInsert measures one per-edge Insert loop over the whole edge
// set into a fresh forest (nanoseconds).
func timePerEdgeInsert(n int, edges []parmsf.Edge, r int) sample {
	return repeat(r, func(int) float64 {
		f := parmsf.MustNew(n, parmsf.Options{MaxEdges: len(edges)})
		defer f.Close()
		t0 := time.Now()
		for _, e := range edges {
			if err := f.Insert(e.U, e.V, e.W); err != nil {
				panic(fmt.Sprintf("experiments: E17 per-edge insert: %v", err))
			}
		}
		return float64(time.Since(t0).Nanoseconds())
	}).best(itself, cost)
}

// BulkPoint is one size measurement of the E17 bulk constructor comparison
// for BENCH_batch.json. Estimated incremental arms are linear lower bounds
// scaled from the cap-size measurement (flagged), so their speedups are
// lower bounds too.
type BulkPoint struct {
	M int `json:"m"`
	N int `json:"n"`
	Host
	BuildMs          float64 `json:"build_ms"`
	BuildMsMed       float64 `json:"build_ms_median"`
	GiantMs          float64 `json:"giant_batch_ms"`
	GiantEstimated   bool    `json:"giant_estimated"`
	PerEdgeMs        float64 `json:"per_edge_ms"`
	PerEdgeEstimated bool    `json:"per_edge_estimated"`
	SpeedupVsGiant   float64 `json:"speedup_vs_giant"`
	SpeedupVsPerEdge float64 `json:"speedup_vs_per_edge"`
}

// buildBulkPoints runs the E17 sweep: the incremental arms once at the cap
// size (a fully measured head-to-head row), then the bulk constructor at
// every headline size with the incremental columns scaled linearly from
// the cap row where they exceed it.
func buildBulkPoints(sc Scale) []BulkPoint {
	sz := bulkSizesFor(sc)
	host := hostNow()
	capM := sz.ms[0]
	if capM > sz.cap {
		capM = sz.cap
	}
	rows := sz.ms
	if capM < rows[0] {
		rows = append([]int{capM}, rows...)
	}
	capN, capEdges := mkBulkEdges(capM)
	capGiant := timeGiantInsert(capN, capEdges, bulkRepeat(capM, true))
	capPerEdge := timePerEdgeInsert(capN, capEdges, bulkRepeat(capM, true))

	var out []BulkPoint
	for _, m := range rows {
		n, edges := mkBulkEdges(m)
		bulk := timeBulkBuild(n, edges, bulkRepeat(m, false))
		bms := bulk.best / 1e6
		p := BulkPoint{
			M: m, N: n, Host: host,
			BuildMs: bms, BuildMsMed: bulk.med / 1e6,
		}
		if m == capM {
			p.GiantMs = capGiant.best / 1e6
			p.PerEdgeMs = capPerEdge.best / 1e6
		} else {
			scale := float64(m) / float64(capM)
			p.GiantMs = capGiant.best / 1e6 * scale
			p.PerEdgeMs = capPerEdge.best / 1e6 * scale
			p.GiantEstimated, p.PerEdgeEstimated = true, true
		}
		p.SpeedupVsGiant = p.GiantMs / bms
		p.SpeedupVsPerEdge = p.PerEdgeMs / bms
		out = append(out, p)
	}
	return out
}

// E17BulkBuild — parallel bulk constructor: cold-start wall time of
// parmsf.Build versus one giant InsertEdges batch versus a per-edge Insert
// loop, m = 10n with distinct weights. Build classifies the set statically
// (filter-Kruskal, a few percent of its time) and constructs the final
// engine state directly — no intermediate tour surgeries, no per-edge O(J)
// vector recomputation — so its total grows like m log n, dominated by
// that construction, while both incremental arms grow like
// m * sqrt(n log n). Rows above the incremental cap carry
// linearly-scaled estimates (marked ~, lower bounds); the cap row is fully
// measured head-to-head.
func E17BulkBuild(w io.Writer, rep *BatchReport) {
	tb := stats.NewTable(
		fmt.Sprintf("E17 — bulk constructor: cold-start load, m=10n distinct weights (incremental arms capped at m=%d, GOMAXPROCS=%d, repeat=%d)",
			bulkSizesFor(rep.scale()).cap, rep.GOMAXPROCS, rep.Repeat),
		"m", "build ms", "(med)", "giant batch ms", "per-edge ms", "vs giant", "vs per-edge")
	mark := func(ms float64, est bool) string {
		if est {
			return fmt.Sprintf("~%.0f", ms)
		}
		return fmt.Sprintf("%.1f", ms)
	}
	for _, p := range rep.Bulk {
		tb.Row(p.M, p.BuildMs, p.BuildMsMed,
			mark(p.GiantMs, p.GiantEstimated), mark(p.PerEdgeMs, p.PerEdgeEstimated),
			p.SpeedupVsGiant, p.SpeedupVsPerEdge)
	}
	tb.Fprint(w)
	fmt.Fprintln(w, "theory: build total ~ m log n (engine-state construction dominates; classification is a few percent); incremental arms ~ m sqrt(n log n); ~ marks linear lower-bound estimates from the cap size")
	fmt.Fprintln(w)
}
