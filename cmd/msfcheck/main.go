// Command msfcheck is a randomized cross-validation stress tool: it drives
// every pipeline configuration (sequential core, EREW PRAM core with
// exclusivity checking, degree reduction, sparsification) and the naive
// Kruskal baseline through the same random update stream, verifying after
// every operation that forests agree and the core structure's invariants
// hold. Exit status 0 means no disagreement was found.
//
// With -build FILE the tool instead cross-validates the parallel bulk
// constructor on an edge-list file ("u v w" per line, # comments; "-"
// selects a builtin deterministic random-sparse list): Build across every
// configuration against an incremental Insert replay and the Kruskal
// baseline, edge for edge, plus cut-property spot checks (deleting a forest
// edge never finds a lighter replacement). The EREW-checked Build must
// report no exclusivity violation, and its PRAM depth and work totals are
// printed.
//
// With -snapshot the tool instead cross-validates the O(delta) snapshot
// publication path: a forest on the default capacity-driven delta schedule
// and a forest with the delta path disabled (every epoch a from-scratch
// rebase sweep) run the same churn, and after every operation the two
// published snapshots must agree on epoch, live edge set and component
// partition (labels in bijection), with weight, size and component count
// checked against the Kruskal baseline. Run for the default and sparsified
// pipelines.
//
// With -cluster FILE (an edge list as for -build) the tool instead
// cross-validates the sharded cluster package: every edge inserted one at
// a time, then every live edge deleted in seeded random order, through k
// in {2, 4} clusters under range and hash placements and a flat
// single-forest twin, against the Kruskal baseline — Weight, Size and
// Components compared after every operation, Connected sampled.
//
// With -crash the tool instead cross-validates panic containment and
// journaled recovery: a forest under batch churn takes injected engine
// panics at every registered crash point in rotation (flat and sparsified
// pipelines), and after each poisoning the tool verifies typed errors,
// fail-fast mutators, a consistent still-served snapshot, and a Recover
// that restores exact agreement with a Kruskal baseline that never saw
// the failed batch.
//
// Usage:
//
//	msfcheck -n 64 -steps 5000 -seed 1
//	msfcheck -quick             # small smoke run
//	msfcheck -build edges.txt   # bulk-constructor cross-validation
//	msfcheck -build -           # the same on the builtin edge list
//	msfcheck -cluster -         # sharded-cluster cross-validation (builtin edges)
//	msfcheck -snapshot          # delta-vs-sweep snapshot cross-validation
//	msfcheck -crash             # fault-injection + recovery cross-validation
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"parmsf"
	"parmsf/internal/core"
)

func main() {
	n := flag.Int("n", 48, "vertex count")
	steps := flag.Int("steps", 3000, "operations to run")
	seed := flag.Uint64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "small smoke run (n=16, steps=500)")
	deep := flag.Int("deep", 97, "run the full O(n^2) core invariant check every `deep` ops on the raw core engine")
	build := flag.String("build", "", "cross-validate parmsf.Build on this edge-list file ('-' for a builtin deterministic list) instead of running the churn stress")
	clusterF := flag.String("cluster", "", "cross-validate the sharded cluster package on this edge-list file ('-' for a builtin deterministic list) instead of running the churn stress")
	snapshotF := flag.Bool("snapshot", false, "cross-validate the O(delta) snapshot publication path against from-scratch sweeps instead of running the churn stress")
	crash := flag.Bool("crash", false, "cross-validate panic containment and journaled recovery: inject engine panics at every registered crash point in rotation and verify each Recover against the Kruskal baseline")
	flag.Parse()
	if *quick {
		*n, *steps = 16, 500
	}
	var edges []parmsf.Edge
	if path := cmp.Or(*build, *clusterF); path != "" {
		var err error
		if *n, edges, err = loadEdges(path, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "msfcheck: %v\n", err)
			os.Exit(2)
		}
	}

	start := time.Now()
	var report string
	var err error
	switch {
	case *build != "":
		report, err = checkBuild(*n, edges)
	case *clusterF != "":
		report, err = checkCluster(*n, edges, *seed)
	case *snapshotF:
		report, err = checkSnapshot(*n, *steps, *seed)
	case *crash:
		report, err = checkCrash(*n, *steps, *seed)
	default:
		report, err = checkChurn(*n, *steps, *deep, *seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "msfcheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("msfcheck: OK — %s, in %v\n", report, time.Since(start).Round(time.Millisecond))
}

// checkChurn runs the churn stream through the sequential, EREW-checked
// and sparsified pipelines, sampling Connected every 11th step. A raw core
// engine mirrors the stream wherever degrees allow (it takes degree-3
// graphs only) and gets the full invariant check every deep steps.
func checkChurn(n, steps, deep int, seed uint64) (string, error) {
	pram := parmsf.MustNew(n, parmsf.Options{MaxEdges: 16 * n, CheckEREW: true})
	subs := []named{
		{"seq", parmsf.MustNew(n, parmsf.Options{MaxEdges: 16 * n})},
		{"pram", pram},
		{"sparsify", parmsf.MustNew(n, parmsf.Options{Sparsify: true})},
	}
	defer closeAll(subs)
	ref := newKruskal(n)
	raw := core.NewMSF(n, core.Config{}, core.SeqCharger{})
	rawLive := map[[2]int]bool{}
	c := newChurn(n, seed)
	err := c.run(ref, subs, steps, func(step int, o op) error {
		k := [2]int{o.u, o.v}
		switch {
		case !o.del:
			if raw.InsertEdge(o.u, o.v, o.w) == nil {
				rawLive[k] = true
			}
		case rawLive[k]:
			if err := raw.DeleteEdge(o.u, o.v); err != nil {
				return fmt.Errorf("raw core %v: %w", o, err)
			}
			delete(rawLive, k)
		}
		if step%11 == 0 {
			if err := agree(ref, subs, [2]int{c.rng.Intn(n), c.rng.Intn(n)}); err != nil {
				return err
			}
		}
		if deep > 0 && step%deep == 0 {
			if err := raw.Store().CheckInvariants(); err != nil {
				return fmt.Errorf("core invariants: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	m := pram.PRAM()
	if v := m.Violations(); len(v) != 0 {
		return "", fmt.Errorf("EREW violations: %v", v)
	}
	return fmt.Sprintf("%d ops on n=%d (final m=%d, forest=%d, PRAM depth=%d work=%d)",
		steps, n, len(c.live), ref.Size(), m.Time, m.Work), nil
}

// checkSnapshot cross-validates the O(delta) publication path: a
// delta-scheduled forest and a forced-sweep forest (SnapshotRebaseEvery:
// 1, every epoch rebuilt from scratch off the engine) run the churn stream,
// and after every step their published snapshots must agree on epoch, the
// live edge set, and the component partition up to label bijection (the
// delta path's labels are persistent identities, the sweep's are dense —
// only the partition is comparable). Both also answer agree against the
// Kruskal baseline, so the pair cannot drift in lockstep.
func checkSnapshot(n, steps int, seed uint64) (string, error) {
	type pair struct {
		name         string
		delta, sweep *parmsf.Forest
	}
	var pairs []pair
	var subs []named
	for _, c := range []struct {
		name string
		opt  parmsf.Options
	}{
		{"default", parmsf.Options{MaxEdges: 16 * n}},
		{"sparsify", parmsf.Options{Sparsify: true}},
	} {
		sweep := c.opt
		sweep.SnapshotRebaseEvery = 1
		p := pair{c.name, parmsf.MustNew(n, c.opt), parmsf.MustNew(n, sweep)}
		pairs = append(pairs, p)
		subs = append(subs, named{p.name + " delta", p.delta}, named{p.name + " sweep", p.sweep})
	}
	defer closeAll(subs)

	same := func(p pair) error {
		a, b := p.delta.Snapshot(), p.sweep.Snapshot()
		defer a.Release()
		defer b.Release()
		if a.Epoch() != b.Epoch() {
			return fmt.Errorf("%s: delta epoch %d != sweep epoch %d", p.name, a.Epoch(), b.Epoch())
		}
		if !maps.Equal(edgeSet(a.Edges), edgeSet(b.Edges)) {
			return fmt.Errorf("%s: delta and sweep snapshots list different edges", p.name)
		}
		ab, ba := map[int]int{}, map[int]int{}
		for v := 0; v < n; v++ {
			la, lb := a.ComponentOf(v), b.ComponentOf(v)
			if x, ok := ab[la]; ok && x != lb {
				return fmt.Errorf("%s: vertex %d: delta label %d maps to sweep labels %d and %d", p.name, v, la, x, lb)
			}
			if x, ok := ba[lb]; ok && x != la {
				return fmt.Errorf("%s: vertex %d: sweep label %d maps to delta labels %d and %d", p.name, v, lb, x, la)
			}
			ab[la], ba[lb] = lb, la
		}
		return nil
	}
	err := newChurn(n, seed).run(newKruskal(n), subs, steps, func(int, op) error {
		for _, p := range pairs {
			if err := same(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}

	var lines []string
	for _, p := range pairs {
		dst, sst := p.delta.PublishStats(), p.sweep.PublishStats()
		if dst.DeltaEpochs == 0 {
			return "", fmt.Errorf("%s: delta-scheduled forest never took the delta path; the comparison is vacuous", p.name)
		}
		if sst.DeltaEpochs != 0 {
			return "", fmt.Errorf("%s: sweep forest took %d delta epochs, want 0", p.name, sst.DeltaEpochs)
		}
		lines = append(lines, fmt.Sprintf("%s %d epochs (%d delta, %d rebases, %d patches)",
			p.name, dst.Epochs, dst.DeltaEpochs, dst.Rebases, dst.PatchEntries))
	}
	return fmt.Sprintf("snapshot delta-vs-sweep parity over %d ops on n=%d: %s",
		steps, n, strings.Join(lines, "; ")), nil
}

// checkBuild cross-validates the bulk constructor on an edge list: Build
// across every pipeline configuration against an incremental replay
// (per-edge Insert, which also yields the reference per-edge errors) and
// the Kruskal baseline, then cut-property spot checks on a built forest.
// The EREW-checked Build's charges are read before anything else runs on
// it, so the reported totals are Build's alone.
func checkBuild(n int, edges []parmsf.Edge) (string, error) {
	maxEdges := max(4*n, len(edges)+8)
	replay := parmsf.MustNew(n, parmsf.Options{MaxEdges: maxEdges})
	defer replay.Close()
	ref, rs := newKruskal(n), []named{{"replay", replay}}
	replayErrs := make([]error, len(edges))
	rejected := 0
	for i, e := range edges {
		var err error
		if replayErrs[i], err = apply(ref, rs, op{u: e.U, v: e.V, w: e.W}); err != nil {
			return "", fmt.Errorf("edge %d: %w", i, err)
		}
		if replayErrs[i] != nil {
			rejected++
		}
	}
	if err := agree(ref, rs); err != nil {
		return "", err
	}
	want := edgeSet(replay.Edges)

	configs := []struct {
		name string
		opt  parmsf.Options
	}{
		{"seq", parmsf.Options{MaxEdges: maxEdges}},
		{"workers2", parmsf.Options{MaxEdges: maxEdges, Workers: 2}},
		{"pram", parmsf.Options{MaxEdges: maxEdges, CheckEREW: true}},
		{"sparsify", parmsf.Options{Sparsify: true}},
	}
	var built []named
	defer func() { closeAll(built) }()
	var depth, work int64
	for _, cfg := range configs {
		f, errs := parmsf.MustBuild(n, edges, cfg.opt)
		built = append(built, named{cfg.name, f})
		if cfg.opt.CheckEREW {
			m := f.PRAM()
			if v := m.Violations(); len(v) != 0 {
				return "", fmt.Errorf("%s: EREW violations: %v", cfg.name, v)
			}
			depth, work = m.Time, m.Work
		}
		if errs == nil {
			errs = make([]error, len(edges))
		}
		for i, err := range errs {
			if !errors.Is(err, replayErrs[i]) {
				return "", fmt.Errorf("%s: edge %d error %v, replay %v", cfg.name, i, err, replayErrs[i])
			}
		}
		if !maps.Equal(edgeSet(f.Edges), want) {
			return "", fmt.Errorf("%s: forest edges differ from the replay's", cfg.name)
		}
	}
	if err := agree(ref, built); err != nil {
		return "", err
	}

	// Cut-property spot checks: deleting a forest edge either splits its
	// component (no replacement crosses the cut) or finds a replacement no
	// lighter than the deleted edge, and reinsertion restores the forest
	// weight exactly.
	f := built[0].subject
	cuts := slices.SortedFunc(maps.Keys(want), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	stride := len(cuts)/64 + 1
	checks := 0
	for i := 0; i < len(cuts); i += stride {
		u, v, w := cuts[i][0], cuts[i][1], want[cuts[i]]
		w0, c0 := f.Weight(), f.Components()
		if err := f.Delete(u, v); err != nil {
			return "", fmt.Errorf("cut check: delete (%d,%d): %w", u, v, err)
		}
		switch {
		case f.Components() == c0+1:
			if f.Weight() != w0-w {
				return "", fmt.Errorf("cut check: split after (%d,%d) but weight %d != %d", u, v, f.Weight(), w0-w)
			}
		case f.Components() == c0:
			if f.Weight() < w0 {
				return "", fmt.Errorf("cut check: replacement for (%d,%d,%d) lighter than cut minimum (weight %d < %d)", u, v, w, f.Weight(), w0)
			}
		default:
			return "", fmt.Errorf("cut check: components %d -> %d after one delete", c0, f.Components())
		}
		if err := f.Insert(u, v, w); err != nil {
			return "", fmt.Errorf("cut check: reinsert (%d,%d): %w", u, v, err)
		}
		if f.Weight() != w0 || f.Components() != c0 {
			return "", fmt.Errorf("cut check: reinsert of (%d,%d,%d) did not restore (w=%d c=%d, want w=%d c=%d)",
				u, v, w, f.Weight(), f.Components(), w0, c0)
		}
		checks++
	}
	return fmt.Sprintf("bulk build of %d edges (%d rejected) on n=%d matches replay+kruskal across %d configs (PRAM depth=%d work=%d), %d cut checks",
		len(edges), rejected, n, len(configs), depth, work, checks), nil
}
