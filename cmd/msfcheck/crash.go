package main

import (
	"errors"
	"fmt"

	"parmsf"
	"parmsf/internal/xrand"
)

// flatCrashPoints are the crash points a forest without sparsification
// routes through.
var flatCrashPoints = []string{"core/apply-batch", "ternary/batch-insert", "ternary/batch-delete", "snapshot/publish"}

// checkCrash cross-validates the fault-containment and recovery plane: a
// forest under randomized batch churn takes injected engine panics at
// every registered crash point in rotation (armed one at a time), and
// after each poisoning the tool verifies the full contract against a
// Kruskal baseline that never saw the failed batch — typed errors on the
// batch, fail-fast mutators, a consistent still-served snapshot, a clean
// Recover, and agreement both right after recovery and after every round
// (by which time the rolled-back batch has been re-applied). Runs the flat
// pipeline and the sparsified pipeline so every point fires on a
// configuration that actually routes through it.
func checkCrash(n, steps int, seed uint64) (string, error) {
	configs := []struct {
		name   string
		opt    parmsf.Options
		points []string
	}{
		{"flat", parmsf.Options{MaxEdges: 16 * n}, flatCrashPoints},
		{"sparsify", parmsf.Options{Sparsify: true},
			append(append([]string{}, flatCrashPoints...), "sparsify/run-batch", "sparsify/node-task")},
	}
	recoveries := 0
	for _, cfg := range configs {
		r, err := crashRounds(n, steps, seed, cfg.name, cfg.opt, cfg.points)
		if err != nil {
			return "", err
		}
		recoveries += r
	}
	return fmt.Sprintf("crash mode: %d injected panics recovered across %d configurations on n=%d",
		recoveries, len(configs), n), nil
}

// crashRounds runs one configuration's rotation and returns the number of
// recoveries. Each round inserts up to 10 fresh edges and deletes 6 live
// ones, one batch each, after arming the next point whenever the last
// armed one has fired. A flat forest's live edges stay within its
// MaxEdges capacity (a sparsified forest has none).
func crashRounds(n, steps int, seed uint64, name string, opt parmsf.Options, points []string) (int, error) {
	f := parmsf.MustNew(n, opt)
	defer f.Close()
	ref, subs := newKruskal(n), []named{{name, f}}
	rng := xrand.New(seed)
	seen := map[[2]int]bool{}
	var live [][2]int
	nextW := parmsf.Weight(1)

	// fresh draws inserts of pairs not live, stopping short of count once
	// every pair is, or once the live edges fill the capacity.
	limit := n * (n - 1) / 2
	if !opt.Sparsify && opt.MaxEdges > 0 {
		limit = min(limit, opt.MaxEdges)
	}
	fresh := func(count int) []op {
		var ops []op
		for len(ops) < count && len(seen) < limit {
			u, v := rng.Intn(n), rng.Intn(n)
			k := [2]int{min(u, v), max(u, v)}
			if u == v || seen[k] {
				continue
			}
			seen[k] = true
			live = append(live, k)
			ops = append(ops, op{u: u, v: v, w: nextW})
			nextW++
		}
		return ops
	}
	stale := func(count int) []op {
		var ops []op
		for i := 0; i < count && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(seen, k)
			ops = append(ops, op{u: k[0], v: k[1], del: true})
		}
		return ops
	}

	armed := ""
	fired := map[string]int{}
	recoveries := 0
	// contain checks the containment contract after a batch poisoned f,
	// recovers, and checks f against the reference, which never applied
	// the failed batch.
	contain := func(errs []error) error {
		for i, err := range errs {
			if !errors.Is(err, parmsf.ErrPoisoned) {
				return fmt.Errorf("errs[%d] = %v, want ErrPoisoned", i, err)
			}
		}
		if pe := f.Poisoned(); pe.Stage == "" {
			return fmt.Errorf("Poisoned() = %+v has no stage", pe)
		}
		if err := f.Insert(0, 1, nextW); !errors.Is(err, parmsf.ErrPoisoned) {
			return fmt.Errorf("mutator on poisoned forest: %v", err)
		}
		s := f.Snapshot()
		served := s.Weight() == f.Weight() && s.Size() == f.Size()
		s.Release()
		if !served {
			return errors.New("poisoned snapshot disagrees with queries")
		}
		if err := f.Recover(); err != nil {
			return fmt.Errorf("Recover: %w", err)
		}
		var pairs [][2]int
		for u := 1; u < n; u += 7 {
			pairs = append(pairs, [2]int{0, u})
		}
		if err := agree(ref, subs, pairs...); err != nil {
			return fmt.Errorf("after Recover: %w", err)
		}
		fired[armed]++
		recoveries++
		armed = ""
		return nil
	}
	// commit applies one batch of inserts or deletes to f, containing and
	// re-applying it once if it poisons f, and then to the reference.
	commit := func(ops []op) error {
		errs := batch(f, ops)
		if f.Poisoned() != nil {
			if err := contain(errs); err != nil {
				return fmt.Errorf("%s (%s): %w", name, armed, err)
			}
			errs = batch(f, ops)
		}
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("%s: %v: %w", name, ops[i], err)
			}
		}
		for _, o := range ops {
			if err := o.to(ref); err != nil {
				return fmt.Errorf("reference %v: %w", o, err)
			}
		}
		return nil
	}

	if err := commit(fresh(2 * n)); err != nil {
		return 0, fmt.Errorf("load: %w", err)
	}
	rounds := max(steps/16, 8*len(points))
	for round, pi := 1, 0; round <= rounds; round++ {
		if armed == "" {
			armed = points[pi%len(points)]
			pi++
			if err := f.ArmFault(armed); err != nil {
				return 0, fmt.Errorf("%s: ArmFault(%q): %w", name, armed, err)
			}
		}
		err := commit(fresh(10))
		if err == nil {
			err = commit(stale(6))
		}
		if err == nil {
			err = agree(ref, subs)
		}
		if err != nil {
			return 0, fmt.Errorf("round %d: %w", round, err)
		}
	}
	for _, p := range points {
		if fired[p] == 0 {
			return 0, fmt.Errorf("%s: crash point %q never fired in %d rounds", name, p, rounds)
		}
	}
	return recoveries, nil
}

// batch applies ops, all inserts or all deletes, to f as one batch.
func batch(f *parmsf.Forest, ops []op) []error {
	if len(ops) > 0 && ops[0].del {
		keys := make([]parmsf.EdgeKey, len(ops))
		for i, o := range ops {
			keys[i] = parmsf.EdgeKey{U: o.u, V: o.v}
		}
		return f.DeleteEdges(keys)
	}
	edges := make([]parmsf.Edge, len(ops))
	for i, o := range ops {
		edges[i] = parmsf.Edge{U: o.u, V: o.v, W: o.w}
	}
	return f.InsertEdges(edges)
}
