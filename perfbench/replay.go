package main

import (
	"fmt"
	"runtime"
	"time"

	"parmsf"
	"parmsf/internal/batch"
	"parmsf/internal/core"
	"parmsf/internal/pram"
)

// forestSpec describes one forest of a workload, for the replays.
type forestSpec struct {
	n    int
	opt  parmsf.Options
	base []parmsf.Edge // bulk-loaded with Build when non-nil
}

// publicRun is an untraced replay through the public API.
type publicRun struct {
	wall    time.Duration // inside the calls of the measured windows
	ops     int
	allocs  uint64
	answers []answer
}

// replayPublic applies wins synchronously to fresh public forests built
// from specs, timing the windows that are not part of a base load.
func replayPublic(specs []forestSpec, wins []window) (publicRun, error) {
	var pr publicRun
	fs := make([]*parmsf.Forest, len(specs))
	defer func() {
		for _, f := range fs {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i, sp := range specs {
		var err error
		if sp.base != nil {
			var errs []error
			fs[i], errs, err = parmsf.Build(sp.n, sp.base, sp.opt)
			if err == nil {
				err = firstErr(errs)
			}
		} else {
			fs[i], err = parmsf.New(sp.n, sp.opt)
		}
		if err != nil {
			return pr, fmt.Errorf("public replay setup: %w", err)
		}
	}
	// Convert every window up front so the measured loop allocates only
	// what the forest allocates.
	calls := make([]call, len(wins))
	for i, w := range wins {
		calls[i] = newCall(w)
	}
	measuring := false
	var m0 uint64
	for i, w := range wins {
		if !w.load && !measuring {
			measuring = true
			m0 = mallocs()
		}
		t0 := time.Now()
		errs := calls[i].apply(fs[w.forest])
		d := time.Since(t0)
		if err := firstErr(errs); err != nil {
			return pr, fmt.Errorf("public replay window %d: %w", i, err)
		}
		if !w.load {
			pr.wall += d
			pr.ops += len(w.ops)
		}
	}
	if measuring {
		pr.allocs = mallocs() - m0
	}
	for _, f := range fs {
		pr.answers = append(pr.answers, forestAnswer(f))
	}
	return pr, nil
}

// counters are the cumulative layer counters of a set of stacks.
type counters struct {
	core               core.Stats
	gadget             int64
	batchNode, perEdge int64
}

// composed is a traced replay through the benchmark's own engine stacks.
type composed struct {
	stacks        []*stack
	stats         []winStat // measured windows, in order
	wall          time.Duration
	ops           int
	before, after counters
}

func buildStacks(specs []forestSpec, tr *tracer) *composed {
	c := &composed{}
	for _, sp := range specs {
		s := newStack(sp.n, sp.opt, tr)
		if sp.base != nil {
			s.load(sp.base)
		}
		c.stacks = append(c.stacks, s)
	}
	return c
}

func (c *composed) close() {
	for _, s := range c.stacks {
		s.close()
	}
}

func (c *composed) counters() counters {
	var t counters
	for _, s := range c.stacks {
		addCoreStats(&t.core, s.coreStats())
		t.gadget += s.gadgetOps.Load()
		if s.spars != nil {
			t.batchNode += s.spars.BatchNodeOps
			t.perEdge += s.spars.PerEdgeNodeOps
		}
	}
	return t
}

// record adds one measured window's outcome.
func (c *composed) record(st winStat) {
	c.stats = append(c.stats, st)
	c.wall += time.Duration(st.wall)
	c.ops += st.ops
}

// replay applies wins to the stacks; base-load windows are applied with
// request id -1, which keeps their spans out of the layer metrics.
func (c *composed) replay(wins []window) error {
	measuring := false
	for i, w := range wins {
		if !w.load && !measuring {
			measuring = true
			c.before = c.counters()
		}
		req := int64(i)
		if w.load {
			req = -1
		}
		st, err := c.stacks[w.forest].apply(w, req)
		if err != nil {
			return fmt.Errorf("composed replay window %d: %w", i, err)
		}
		if !w.load {
			c.record(st)
		}
	}
	c.after = c.counters()
	return nil
}

// layerMetrics reports the per-layer metrics the composed replay measures.
// forestWall is the public forest's time on the same windows.
func (c *composed) layerMetrics(r *report, tr *tracer, forestWall time.Duration) {
	lt := tr.layers()
	ops := float64(c.ops)
	self := func(name string) float64 {
		if l := lt[name]; l != nil {
			return float64(l.self)
		}
		return 0
	}
	r.set("parmsf.commit_self_us_per_op", self("parmsf.commit")/1e3/ops, c.ops)
	r.set("ternary.self_us_per_op", self("ternary")/1e3/ops, c.ops)
	r.set("ternary.gadget_ops_per_op", float64(c.after.gadget-c.before.gadget)/ops, c.ops)
	d := func(a, b int64) float64 { return float64(a-b) / ops }
	r.set("core.mwr_queries_per_op", d(c.after.core.MWRQueries, c.before.core.MWRQueries), c.ops)
	r.set("core.chunk_ops_per_op", d(c.after.core.ChunkSplits+c.after.core.ChunkMerges,
		c.before.core.ChunkSplits+c.before.core.ChunkMerges), c.ops)
	r.set("core.row_rebuilds_per_op", d(c.after.core.RowRebuilds, c.before.core.RowRebuilds), c.ops)

	var ins, tree, nontree []float64
	for _, st := range c.stats {
		us := float64(st.coreNs) / 1e3 / float64(st.ops)
		switch st.class {
		case "insert":
			ins = append(ins, us)
		case "insert-nontree":
			ins = append(ins, us)
			nontree = append(nontree, us)
		case "delete-tree":
			tree = append(tree, us)
		case "delete-nontree":
			nontree = append(nontree, us)
		}
	}
	r.set("core.insert_us_p50", pct(ins, 50), len(ins))
	r.set("core.tree_delete_us_p50", pct(tree, 50), len(tree))
	r.set("core.tree_delete_us_p99", pct(tree, 99), len(tree))
	r.set("core.nontree_us_p50", pct(nontree, 50), len(nontree))

	if l := lt["sparsify"]; l != nil {
		ms := make([]float64, len(l.durs))
		for i, x := range l.durs {
			ms[i] = float64(x) / 1e6
		}
		r.set("sparsify.batch_ms_p50", pct(ms, 50), len(ms))
		applies := (c.after.batchNode - c.before.batchNode) + (c.after.perEdge - c.before.perEdge)
		r.set("sparsify.node_applies_per_batch", float64(applies)/float64(l.count), l.count)
		r.set("sparsify.per_edge_fallbacks", float64(c.after.perEdge-c.before.perEdge), 0)
	}

	var attributed float64
	for _, l := range lt {
		attributed += float64(l.self)
	}
	fw := float64(forestWall)
	r.set("parmsf.unattributed_share", (fw-attributed)/fw, len(c.stats))
	r.set("parmsf.trace_overhead", float64(c.wall)/fw-1, len(c.stats))
	note("replay: %d windows, %d ops; public forest %.3fs, traced composed stack %.3fs",
		len(c.stats), c.ops, forestWall.Seconds(), c.wall.Seconds())
}

// poolSlowdown replays a prefix of wins (every base-load window and the
// first quarter of the measured ones) through untraced stacks with 2
// workers and with none, and returns the ratio of their wall times.
func poolSlowdown(specs []forestSpec, wins []window) (float64, error) {
	measured := 0
	for _, w := range wins {
		if !w.load {
			measured++
		}
	}
	cut, seen := len(wins), 0
	for i, w := range wins {
		if !w.load {
			if seen == measured/4 {
				cut = i
				break
			}
			seen++
		}
	}
	wall := func(workers int) (time.Duration, error) {
		vs := make([]forestSpec, len(specs))
		for i, sp := range specs {
			sp.opt.Workers = workers
			vs[i] = sp
		}
		c := buildStacks(vs, nil)
		defer c.close()
		if err := c.replay(wins[:cut]); err != nil {
			return 0, err
		}
		return c.wall, nil
	}
	w2, err := wall(2)
	if err != nil {
		return 0, err
	}
	w0, err := wall(0)
	if err != nil {
		return 0, err
	}
	return float64(w2) / float64(w0), nil
}

// sortMs times batch.Sort of the base edges on the machine opt selects.
func sortMs(base []parmsf.Edge, opt parmsf.Options) float64 {
	items := make([]batch.Item, len(base))
	for i, e := range base {
		items[i] = batch.Item{Key: e.W, A: e.U, B: e.V, Idx: i}
	}
	var m *pram.Machine
	if opt.Workers != 0 {
		m = pram.NewParallel(opt.Workers)
		defer m.Close()
	}
	t0 := time.Now()
	batch.Sort(m, items)
	return float64(time.Since(t0)) / 1e6
}

// replayChecks runs a traced run's replays one after another, so that only
// one replay's forests are alive at a time:
//   - the composed stacks, driven by drive, which applies the windows and
//     returns them; their final forests must equal final (toGlobal maps
//     the per-forest answers to the workload's answer);
//   - fresh public forests on the same windows, untraced: the forest wall
//     time the layer self-times are compared against, and allocations;
//   - the pool-slowdown pair.
func replayChecks(r *report, name string, specs []forestSpec, final answer, toGlobal func([]answer) answer,
	drive func(c *composed) ([]window, error)) (*tracer, error) {
	rtr := newTracer()
	c := buildStacks(specs, rtr)
	wins, err := drive(c)
	var got []answer
	for _, s := range c.stacks {
		got = append(got, s.answer())
	}
	c.close()
	c.stacks = nil
	if err != nil {
		return nil, err
	}
	if err := checkAnswer(toGlobal(got), final); err != nil {
		r.fail("%s: composed replay differs from the untraced run: %v", name, err)
	}
	runtime.GC()
	pr, err := replayPublic(specs, wins)
	if err != nil {
		return nil, err
	}
	if err := checkAnswer(toGlobal(pr.answers), final); err != nil {
		r.fail("%s: public replay differs from the untraced run: %v", name, err)
	}
	r.set("parmsf.allocs_per_op", float64(pr.allocs)/float64(pr.ops), pr.ops)
	c.layerMetrics(r, rtr, pr.wall)
	runtime.GC()
	slow, err := poolSlowdown(specs, wins)
	if err != nil {
		return nil, err
	}
	r.set("pram.pool_slowdown", slow, 0)
	return rtr, nil
}

// single is toGlobal for a one-forest workload.
func single(as []answer) answer { return as[0] }
