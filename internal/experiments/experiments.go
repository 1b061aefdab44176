// Package experiments implements the per-experiment harness: every
// theorem, lemma and comparison of the paper becomes a runnable experiment
// printing a table, listed in Registry. The cmd/msfbench binary drives
// this package.
//
// The paper proves worst-case bounds and reports no measurements, so each
// experiment verifies a *shape*: measured cost against the proved growth
// rate, with log-log fits and flatness ratios, rather than absolute
// numbers.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"parmsf/internal/baseline"
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/stats"
	"parmsf/internal/workload"
	"parmsf/internal/xrand"
)

// Scale selects experiment sizes.
type Scale int

// Scales.
const (
	Tiny  Scale = iota // smoke-test sized
	Quick              // CI-sized
	Full               // paper-sized
)

func (s Scale) sizes() []int {
	switch s {
	case Full:
		return []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16}
	case Tiny:
		return []int{1 << 7, 1 << 8}
	default:
		return []int{1 << 9, 1 << 10, 1 << 11, 1 << 12}
	}
}

func (s Scale) steps(n int) int {
	switch s {
	case Full:
		if n >= 1<<15 {
			return 1500
		}
		return 3000
	case Tiny:
		return 60
	default:
		return 800
	}
}

// Registry maps experiment ids to runners.
var Registry = map[string]func(w io.Writer, sc Scale){
	"E1":  E1SeqUpdate,
	"E2":  E2ParallelDepth,
	"E3":  E3Work,
	"E4":  E4Sparsify,
	"E5":  E5ChunkParam,
	"E6":  E6LSDSOps,
	"E7":  E7MWR,
	"E8":  E8Baselines,
	"E9":  E9Structure,
	"E10": E10ShortLists,
	"E11": E11ParSparsify,
	"E12": batchExperiments["E12"].run,
	"E13": batchExperiments["E13"].run,
	"E14": batchExperiments["E14"].run,
	"E15": batchExperiments["E15"].run,
	"E16": batchExperiments["E16"].run,
	"E17": batchExperiments["E17"].run,
	"E18": batchExperiments["E18"].run,
	"E19": batchExperiments["E19"].run,
	"E20": batchExperiments["E20"].run,
}

// Order is the canonical execution order.
var Order = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"}

// sqrtNLogN is the Theorem 1.2 bound shape.
func sqrtNLogN(n int) float64 {
	f := float64(n)
	return math.Sqrt(f * math.Log2(f))
}

// churnStream builds the standard degree-3 sparse workload for n vertices.
func churnStream(n, steps int, seed uint64) workload.Stream {
	base := workload.DegreeBounded(n, n*5/4, 3, seed)
	return workload.Churn(n, base, steps, true, seed+1)
}

// runSeq executes a stream on a sequential core engine, returning per-op
// wall times in nanoseconds (loading phase excluded: only the final `tail`
// ops are measured).
func runSeq(m *core.MSF, s workload.Stream, tail int) []float64 {
	start := len(s.Ops) - tail
	if start < 0 {
		start = 0
	}
	var samples []float64
	for i, op := range s.Ops {
		var t0 time.Time
		if i >= start {
			t0 = time.Now()
		}
		applyOp(m, op)
		if i >= start {
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return samples
}

func applyOp(m *core.MSF, op workload.Op) {
	if op.Kind == workload.OpInsert {
		if err := m.InsertEdge(op.U, op.V, op.W); err != nil {
			panic(fmt.Sprintf("experiments: insert (%d,%d): %v", op.U, op.V, err))
		}
	} else if err := m.DeleteEdge(op.U, op.V); err != nil {
		panic(fmt.Sprintf("experiments: delete (%d,%d): %v", op.U, op.V, err))
	}
}

// E1SeqUpdate — Theorem 1.2: sequential worst-case update O(sqrt(n log n)).
func E1SeqUpdate(w io.Writer, sc Scale) {
	tb := stats.NewTable("E1 — Theorem 1.2: sequential update time, sparse degree-3 graphs",
		"n", "ops", "mean ns", "p99 ns", "mean/sqrt(n log n)", "p99/sqrt(n log n)")
	var ns, means []float64
	for _, n := range sc.sizes() {
		s := churnStream(n, sc.steps(n), uint64(n))
		m := core.NewMSF(n, core.Config{}, core.SeqCharger{})
		samples := runSeq(m, s, sc.steps(n))
		mean, p99 := stats.Mean(samples), stats.Percentile(samples, 99)
		bound := sqrtNLogN(n)
		tb.Row(n, len(samples), mean, p99, mean/bound, p99/bound)
		ns = append(ns, float64(n))
		means = append(means, mean)
	}
	tb.Fprint(w)
	exp, _ := stats.FitPower(ns, means)
	fmt.Fprintf(w, "fitted exponent of mean update time vs n: %.3f (theory: 0.5 + o(1))\n\n", exp)
}

// E2ParallelDepth — Theorem 3.1: parallel time O(log n), processors
// O(sqrt n).
func E2ParallelDepth(w io.Writer, sc Scale) {
	tb := stats.NewTable("E2 — Theorem 3.1: EREW depth per update and processor usage",
		"n", "ops", "mean depth", "max depth", "depth/log2 n", "maxProc", "maxProc/sqrt n")
	var ns, depths []float64
	sizes := sc.sizes()
	if sc == Quick && len(sizes) > 3 {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		s := churnStream(n, sc.steps(n), uint64(n)+7)
		mach := pram.New(false)
		m := core.NewMSF(n, core.Config{}, core.PRAMCharger{M: mach})
		start := len(s.Ops) - sc.steps(n)
		var samples []float64
		for i, op := range s.Ops {
			before := mach.Time
			applyOp(m, op)
			if i >= start {
				samples = append(samples, float64(mach.Time-before))
			}
		}
		mean := stats.Mean(samples)
		tb.Row(n, len(samples), mean, stats.Max(samples),
			mean/math.Log2(float64(n)), mach.MaxActive,
			float64(mach.MaxActive)/math.Sqrt(float64(n)))
		ns = append(ns, float64(n))
		depths = append(depths, mean)
	}
	tb.Fprint(w)
	exp, _ := stats.FitPower(ns, depths)
	fmt.Fprintf(w, "fitted exponent of depth vs n: %.3f (theory: ~0, logarithmic)\n\n", exp)
}

// E3Work — Theorem 1.1 work O(sqrt(n) log n) vs the Section 1 prior-work
// cost models (Ferragina n^{2/3} log(m/n); Das-Ferragina m^{2/3}).
func E3Work(w io.Writer, sc Scale) {
	tb := stats.NewTable("E3 — work per update vs prior-work cost models (normalized at smallest n)",
		"n", "measured work", "sqrt(n)*log n (this paper)", "Ferragina n^(2/3)", "Das-Ferragina m^(2/3)", "measured/bound")
	sizes := sc.sizes()
	if sc == Quick && len(sizes) > 3 {
		sizes = sizes[:3]
	}
	var ns, works []float64
	var w0, n0 float64
	for i, n := range sizes {
		s := churnStream(n, sc.steps(n), uint64(n)+77)
		mach := pram.New(false)
		m := core.NewMSF(n, core.Config{}, core.PRAMCharger{M: mach})
		start := len(s.Ops) - sc.steps(n)
		var samples []float64
		for j, op := range s.Ops {
			before := mach.Work
			applyOp(m, op)
			if j >= start {
				samples = append(samples, float64(mach.Work-before))
			}
		}
		mean := stats.Mean(samples)
		f := float64(n)
		if i == 0 {
			w0, n0 = mean, f
		}
		norm := func(model func(float64) float64) float64 {
			return w0 * model(f) / model(n0)
		}
		paper := func(x float64) float64 { return math.Sqrt(x) * math.Log2(x) }
		ferr := func(x float64) float64 { return math.Pow(x, 2.0/3.0) } // m=O(n): log(m/n)=O(1)
		dasf := func(x float64) float64 { return math.Pow(1.25*x, 2.0/3.0) }
		tb.Row(n, mean, norm(paper), norm(ferr), norm(dasf), mean/paper(f))
		ns = append(ns, f)
		works = append(works, mean)
	}
	tb.Fprint(w)
	exp, _ := stats.FitPower(ns, works)
	fmt.Fprintf(w, "fitted exponent of work vs n: %.3f (theory: 0.5+o(1); prior work: 0.667)\n\n", exp)
}

// E4Sparsify — Section 5: with sparsification, update cost depends on n,
// not m. Each engine replays each density's stream Repeat times, each time
// on a fresh engine, and the table prints the median mean time per op.
func E4Sparsify(w io.Writer, sc Scale) {
	n := 512
	densities := []int{2, 4, 8, 16}
	steps := 400
	switch sc {
	case Full:
		n = 1024
		densities = []int{2, 4, 8, 16, 32}
		steps = 800
	case Tiny:
		n = 64
		densities = []int{2, 4}
		steps = 40
	}
	tb := stats.NewTable(fmt.Sprintf("E4 — Section 5 sparsification: update time vs density (n=%d, median of %d runs)", n, max(Repeat, 1)),
		"m/n", "m", "sparsify ns/op", "flat core+ternary ns/op", "LCT-scan ns/op")
	var spars, flat []float64
	for _, d := range densities {
		m := n * d
		if m > n*(n-1)/2 {
			break
		}
		base := workload.RandomSparse(n, m, uint64(d))
		stream := workload.Churn(n, base, steps, false, uint64(d)+1)
		median := func(mk func() genEngine) float64 {
			return repeat(Repeat, func(int) float64 { return timeEngine(mk(), stream, steps) }).best(itself, cost).med
		}
		sp := median(func() genEngine { return newSparsifyEngine(n) })
		fl := median(func() genEngine { return newFlatEngine(n, 2*m+4*n) })
		lc := median(func() genEngine { return baseline.NewLCTScan(n) })
		tb.Row(d, m, sp, fl, lc)
		spars = append(spars, sp)
		flat = append(flat, fl)
	}
	tb.Fprint(w)
	fmt.Fprintf(w, "flatness (max/min over densities): sparsify %.2f, flat %.2f (theory: sparsify O(1), flat grows)\n\n",
		stats.RatioSpread(spars), stats.RatioSpread(flat))
}

// genEngine is the minimal engine interface the comparative experiments
// need.
type genEngine interface {
	InsertEdge(u, v int, w int64) error
	DeleteEdge(u, v int) error
}

func timeEngine(e genEngine, s workload.Stream, tail int) float64 {
	start := len(s.Ops) - tail
	if start < 0 {
		start = 0
	}
	var samples []float64
	for i, op := range s.Ops {
		var t0 time.Time
		if i >= start {
			t0 = time.Now()
		}
		if op.Kind == workload.OpInsert {
			if err := e.InsertEdge(op.U, op.V, op.W); err != nil {
				panic(err)
			}
		} else if err := e.DeleteEdge(op.U, op.V); err != nil {
			panic(err)
		}
		if i >= start {
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return stats.Mean(samples)
}

// E5ChunkParam — Lemma 2.2 ablation: sequential cost is O(J + K) =
// O(n/K + K), minimized near K = sqrt(n log n); both smaller and larger K
// hurt.
func E5ChunkParam(w io.Writer, sc Scale) {
	n := 1 << 11
	switch sc {
	case Full:
		n = 1 << 14
	case Tiny:
		n = 1 << 8
	}
	steps := sc.steps(n)
	kOpt := int(sqrtNLogN(n))
	tb := stats.NewTable(fmt.Sprintf("E5 — Lemma 2.2 ablation: update time vs chunk parameter K (n=%d, K*=sqrt(n log n)=%d)", n, kOpt),
		"K", "K/K*", "mean ns", "p99 ns", "splits", "merges", "rebuilds")
	for _, factor := range []float64{0.25, 0.5, 1, 2, 4} {
		k := int(float64(kOpt) * factor)
		if k < 8 {
			k = 8
		}
		s := churnStream(n, steps, uint64(n)+uint64(k))
		m := core.NewMSF(n, core.Config{K: k}, core.SeqCharger{})
		samples := runSeq(m, s, steps)
		st := m.Store().Stats()
		tb.Row(k, factor, stats.Mean(samples), stats.Percentile(samples, 99),
			st.ChunkSplits, st.ChunkMerges, st.RowRebuilds)
	}
	tb.Fprint(w)
	fmt.Fprintln(w)
}

// E6LSDSOps — Lemma 2.3 vs 3.2: isolate LSDS UpdateAdj cost using non-tree
// edge churn (no surgery): sequential O(J log J) vs parallel O(log J)
// depth.
func E6LSDSOps(w io.Writer, sc Scale) {
	tb := stats.NewTable("E6 — Lemmas 2.3/3.2: non-tree edge updates (pure CAdj/LSDS work)",
		"n", "seq ns/op", "seq/(J log J)", "par depth/op", "depth/log2 n")
	sizes := sc.sizes()
	if sc == Quick && len(sizes) > 3 {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		// Build a path (degree <= 2), then churn heavy chords one at a
		// time: each chord closes a cycle as its heaviest edge, so the
		// insert/delete pair touches CAdj entries and LSDS paths but never
		// the forest, isolating the Lemma 2.3/3.2 cost.
		seqM := core.NewMSF(n, core.Config{}, core.SeqCharger{})
		mach := pram.New(false)
		parM := core.NewMSF(n, core.Config{}, core.PRAMCharger{M: mach})
		for i := 0; i+1 < n; i++ {
			mustOp(seqM.InsertEdge(i, i+1, int64(i+1)))
			mustOp(parM.InsertEdge(i, i+1, int64(i+1)))
		}
		rng := xrand.New(uint64(n) + 3)
		steps := sc.steps(n) / 2
		var seqNS, parDepth []float64
		for i := 0; i < steps; i++ {
			u := rng.Intn(n - 2)
			v := u + 2 // chord over one path vertex; heavy => stays non-tree
			wt := int64(10*n + i)
			t0 := time.Now()
			if seqM.InsertEdge(u, v, wt) == nil {
				seqNS = append(seqNS, float64(time.Since(t0).Nanoseconds()))
				t0 = time.Now()
				mustOp(seqM.DeleteEdge(u, v))
				seqNS = append(seqNS, float64(time.Since(t0).Nanoseconds()))
			}
			before := mach.Time
			if parM.InsertEdge(u, v, wt) == nil {
				parDepth = append(parDepth, float64(mach.Time-before))
				before = mach.Time
				mustOp(parM.DeleteEdge(u, v))
				parDepth = append(parDepth, float64(mach.Time-before))
			}
		}
		_, J := seqM.Store().Params()
		jlj := float64(J) * math.Log2(float64(J)+2)
		tb.Row(n, stats.Mean(seqNS), stats.Mean(seqNS)/jlj,
			stats.Mean(parDepth), stats.Mean(parDepth)/math.Log2(float64(n)))
	}
	tb.Fprint(w)
	fmt.Fprintln(w)
}

func mustOp(err error) {
	if err != nil {
		panic(err)
	}
}

// E7MWR — Lemmas 2.4/3.3: replacement search cost via forced tree-edge
// delete + reinsert cycles.
func E7MWR(w io.Writer, sc Scale) {
	tb := stats.NewTable("E7 — Lemmas 2.4/3.3: tree-edge deletion (replacement search) cost",
		"n", "seq ns/del", "seq/sqrt(n log n)", "par depth/del", "depth/log2 n", "MWR queries")
	sizes := sc.sizes()
	if sc == Quick && len(sizes) > 3 {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		base := workload.DegreeBounded(n, n*5/4, 3, uint64(n)+13)
		seqM := core.NewMSF(n, core.Config{}, core.SeqCharger{})
		mach := pram.New(false)
		parM := core.NewMSF(n, core.Config{}, core.PRAMCharger{M: mach})
		for _, e := range base {
			mustOp(seqM.InsertEdge(e.U, e.V, e.W))
			mustOp(parM.InsertEdge(e.U, e.V, e.W))
		}
		rng := xrand.New(uint64(n) + 17)
		steps := sc.steps(n) / 4
		var seqNS, parDepth []float64
		for i := 0; i < steps; i++ {
			// Pick a random forest edge and delete it (forces MWR).
			var te [][3]int64
			seqM.ForestEdges(func(u, v int, wt int64) bool {
				te = append(te, [3]int64{int64(u), int64(v), wt})
				return true
			})
			if len(te) == 0 {
				break
			}
			p := te[rng.Intn(len(te))]
			u, v, wt := int(p[0]), int(p[1]), p[2]
			t0 := time.Now()
			mustOp(seqM.DeleteEdge(u, v))
			seqNS = append(seqNS, float64(time.Since(t0).Nanoseconds()))
			before := mach.Time
			mustOp(parM.DeleteEdge(u, v))
			parDepth = append(parDepth, float64(mach.Time-before))
			mustOp(seqM.InsertEdge(u, v, wt))
			mustOp(parM.InsertEdge(u, v, wt))
		}
		tb.Row(n, stats.Mean(seqNS), stats.Mean(seqNS)/sqrtNLogN(n),
			stats.Mean(parDepth), stats.Mean(parDepth)/math.Log2(float64(n)),
			seqM.Store().Stats().MWRQueries)
	}
	tb.Fprint(w)
	fmt.Fprintln(w)
}

// E8Baselines — Section 1 comparison: this paper's sequential structure vs
// the LCT-scan and Kruskal-recompute baselines on identical general-graph
// streams.
func E8Baselines(w io.Writer, sc Scale) {
	tb := stats.NewTable("E8 — baseline comparison: mean ns per update (general graphs, m=2n)",
		"n", "core (this paper)", "LCT-scan", "Kruskal recompute", "core wins?")
	sizes := sc.sizes()
	if sc == Quick && len(sizes) > 3 {
		sizes = sizes[:3]
	}
	var ns, coreT, lctT, krT []float64
	for _, n := range sizes {
		base := workload.RandomSparse(n, 2*n, uint64(n)+23)
		stream := workload.Churn(n, base, sc.steps(n)/2, false, uint64(n)+29)
		tail := sc.steps(n) / 2
		ct := timeEngine(newFlatEngine(n, 8*n), stream, tail)
		// The baselines are super-linear per op; cap their sizes so the
		// full-scale table finishes (NaN marks skipped cells).
		lt := math.NaN()
		if n <= 1<<14 {
			lt = timeEngine(baseline.NewLCTScan(n), stream, tail)
		}
		kt := math.NaN()
		if n <= 1<<13 {
			kt = timeEngine(baseline.NewKruskal(n), stream, tail)
		}
		win := "yes"
		if !math.IsNaN(lt) && ct > lt {
			win = "not yet"
		}
		tb.Row(n, ct, lt, kt, win)
		ns = append(ns, float64(n))
		coreT = append(coreT, ct)
		lctT = append(lctT, lt)
		krT = append(krT, kt)
	}
	tb.Fprint(w)
	var lns, lts []float64
	for i := range ns {
		if !math.IsNaN(lctT[i]) {
			lns = append(lns, ns[i])
			lts = append(lts, lctT[i])
		}
	}
	e1, _ := stats.FitPower(ns, coreT)
	e2, _ := stats.FitPower(lns, lts)
	fmt.Fprintf(w, "fitted exponents: core %.3f (theory 0.5), LCT-scan %.3f (theory ~1)\n\n", e1, e2)
}

// E9Structure — Figures 1/2: Invariant 1 occupancy, BTc heights (getEdge
// depth) and LSDS heights across n.
func E9Structure(w io.Writer, sc Scale) {
	tb := stats.NewTable("E9 — structure shape: Invariant 1 occupancy and tree heights",
		"n", "chunks", "registered", "nc/K min", "nc/K mean", "nc/K max", "BTc h mean", "BTc h max", "h/log2 K", "LSDS h max")
	for _, n := range sc.sizes() {
		s := churnStream(n, sc.steps(n), uint64(n)+31)
		m := core.NewMSF(n, core.Config{}, core.SeqCharger{})
		for _, op := range s.Ops {
			applyOp(m, op)
		}
		st := m.Store()
		count, mn, mean, mx := st.Occupancy()
		bh, bmax := st.BTHeightStats()
		_, lmax := st.LSDSHeightStats()
		k, _ := st.Params()
		tb.Row(n, count, st.RegisteredChunks(), mn, mean, mx,
			bh, bmax, float64(bmax)/math.Log2(float64(k)+2), lmax)
	}
	tb.Fprint(w)
	fmt.Fprintln(w, "theory: nc/K <= 3 always (Invariant 1); BTc height O(log K); LSDS height O(log J)")
	fmt.Fprintln(w)
}

// E10ShortLists — Section 6: many small components exercising the
// short-list path.
func E10ShortLists(w io.Writer, sc Scale) {
	tb := stats.NewTable("E10 — Section 6 short lists: small-component churn",
		"n", "components", "mean ns", "registers", "unregisters", "short-path MWRs")
	sizes := sc.sizes()
	if sc == Quick && len(sizes) > 3 {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		// Many 8-vertex components churned independently: every list stays
		// short (n_c < K for K >= sqrt(n log n) and component size 8).
		m := core.NewMSF(n, core.Config{}, core.SeqCharger{})
		rng := xrand.New(uint64(n) + 41)
		comp := n / 8
		var samples []float64
		wt := int64(1)
		type pair struct{ u, v int }
		var live []pair
		for step := 0; step < sc.steps(n); step++ {
			c := rng.Intn(comp)
			baseV := c * 8
			if rng.Bool() || len(live) == 0 {
				u := baseV + rng.Intn(8)
				v := baseV + rng.Intn(8)
				if u == v {
					continue
				}
				t0 := time.Now()
				if m.InsertEdge(u, v, wt) == nil {
					samples = append(samples, float64(time.Since(t0).Nanoseconds()))
					live = append(live, pair{u, v})
				}
				wt++
			} else {
				i := rng.Intn(len(live))
				p := live[i]
				t0 := time.Now()
				mustOp(m.DeleteEdge(p.u, p.v))
				samples = append(samples, float64(time.Since(t0).Nanoseconds()))
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		st := m.Store().Stats()
		tb.Row(n, comp, stats.Mean(samples), st.Registers, st.Unregisters, st.MWRQueries)
	}
	tb.Fprint(w)
	fmt.Fprintln(w, "theory: short-list operations avoid the CAdj matrix entirely; time stays small and flat in n")
	fmt.Fprintln(w)
}

// E11ParSparsify — Section 5.3: parallel sparsification. Each node engine
// runs the PRAM driver on its own machine; per-update depth is the maximum
// over touched levels plus O(log n) coordination (the levels run
// concurrently in the EREW model). Theorem 1.1: depth stays O(log n) on
// general graphs.
func E11ParSparsify(w io.Writer, sc Scale) {
	tb := stats.NewTable("E11 — Section 5.3: parallel sparsification depth on general graphs (m=4n)",
		"n", "ops", "mean depth", "depth/log2 n")
	sizes := []int{128, 256, 512}
	switch sc {
	case Full:
		sizes = []int{128, 256, 512, 1024}
	case Tiny:
		sizes = []int{32, 64}
	}
	var ns, depths []float64
	for _, n := range sizes {
		f := newParSparsifyEngine(n)
		churn := 200
		if sc == Tiny {
			churn = 30
		}
		base := workload.RandomSparse(n, 4*n, uint64(n)+51)
		stream := workload.Churn(n, base, churn, false, uint64(n)+53)
		tail := churn
		start := len(stream.Ops) - tail
		var samples []float64
		for i, op := range stream.Ops {
			before := f.ParDepth
			if op.Kind == workload.OpInsert {
				mustOp(f.InsertEdge(op.U, op.V, op.W))
			} else {
				mustOp(f.DeleteEdge(op.U, op.V))
			}
			if i >= start {
				samples = append(samples, float64(f.ParDepth-before))
			}
		}
		mean := stats.Mean(samples)
		tb.Row(n, len(samples), mean, mean/math.Log2(float64(n)))
		ns = append(ns, float64(n))
		depths = append(depths, mean)
	}
	tb.Fprint(w)
	exp, _ := stats.FitPower(ns, depths)
	fmt.Fprintf(w, "fitted exponent of depth vs n: %.3f (theory: ~0, logarithmic)\n\n", exp)
}
