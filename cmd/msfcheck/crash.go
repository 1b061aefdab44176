package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"parmsf"
	"parmsf/internal/baseline"
	"parmsf/internal/xrand"
)

// checkCrash cross-validates the fault-containment and recovery plane: a
// forest under randomized batch churn takes injected engine panics at
// every registered crash point in rotation (armed one at a time), and
// after each poisoning the tool verifies the full contract against a
// Kruskal baseline that never saw the failed batch — typed errors on the
// batch, fail-fast mutators, a consistent still-served snapshot, a clean
// Recover, and weight/size/partition agreement both right after recovery
// and at the end of the stream (by which time the rolled-back batch has
// been re-applied). Runs the flat pipeline and the sparsified pipeline so
// every point fires on a configuration that actually routes through it.
func checkCrash(n, steps int, seed uint64) {
	start := time.Now()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "msfcheck: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}

	flat := []string{"core/apply-batch", "ternary/batch-insert", "ternary/batch-delete", "snapshot/publish"}
	configs := []struct {
		name   string
		opt    parmsf.Options
		points []string
	}{
		{"flat", parmsf.Options{MaxEdges: 16 * n}, flat},
		{"sparsify", parmsf.Options{Sparsify: true},
			append(append([]string{}, flat...), "sparsify/run-batch", "sparsify/node-task")},
	}

	recoveries := 0
	for _, cfg := range configs {
		f := parmsf.MustNew(n, cfg.opt)
		ref := baseline.NewKruskal(n)
		rng := xrand.New(seed)
		seen := map[[2]int]bool{}
		var live [][2]int
		nextW := int64(1)

		freshBatch := func(count int) []parmsf.Edge {
			batch := make([]parmsf.Edge, 0, count)
			for len(batch) < count {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				k := [2]int{u, v}
				if u > v {
					k = [2]int{v, u}
				}
				if seen[k] {
					continue
				}
				seen[k] = true
				live = append(live, k)
				batch = append(batch, parmsf.Edge{U: u, V: v, W: nextW})
				nextW++
			}
			return batch
		}
		deleteBatch := func(count int) []parmsf.EdgeKey {
			var del []parmsf.EdgeKey
			for i := 0; i < count && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				k := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(seen, k)
				del = append(del, parmsf.EdgeKey{U: k[0], V: k[1]})
			}
			return del
		}

		armed := ""
		fired := map[string]int{}
		pi := 0
		// onPoison verifies the containment contract after a batch reported
		// poisoned, recovers, and checks parity against the baseline (which
		// never applied the failed batch).
		onPoison := func(round int, errs []error) {
			for i, err := range errs {
				if !errors.Is(err, parmsf.ErrPoisoned) {
					fail("%s round %d (%s): errs[%d] = %v, want ErrPoisoned", cfg.name, round, armed, i, err)
				}
			}
			pe := f.Poisoned()
			if pe == nil || pe.Stage == "" {
				fail("%s round %d (%s): Poisoned() = %+v after poisoned batch", cfg.name, round, armed, pe)
			}
			if err := f.Insert(0, 1, nextW); !errors.Is(err, parmsf.ErrPoisoned) {
				fail("%s round %d (%s): mutator on poisoned forest: %v", cfg.name, round, armed, err)
			}
			s := f.Snapshot()
			if s.Weight() != f.Weight() || s.Size() != f.Size() {
				fail("%s round %d (%s): poisoned snapshot disagrees with queries", cfg.name, round, armed)
			}
			s.Release()
			if err := f.Recover(); err != nil {
				fail("%s round %d (%s): Recover: %v", cfg.name, round, armed, err)
			}
			if f.Weight() != ref.Weight() || f.Size() != ref.ForestSize() {
				fail("%s round %d (%s): post-recover (w=%d,s=%d) vs ref (w=%d,s=%d)",
					cfg.name, round, armed, f.Weight(), f.Size(), ref.Weight(), ref.ForestSize())
			}
			for u := 1; u < n; u += 7 {
				if f.Connected(0, u) != ref.Connected(0, u) {
					fail("%s round %d (%s): post-recover partition diverges at vertex %d", cfg.name, round, armed, u)
				}
			}
			fired[armed]++
			recoveries++
			armed = ""
		}

		applyInserts := func(round int, batch []parmsf.Edge) {
			errs := f.InsertEdges(batch)
			if f.Poisoned() != nil {
				onPoison(round, errs)
				errs = f.InsertEdges(batch)
			}
			for i, err := range errs {
				if err != nil {
					fail("%s round %d: insert %v: %v", cfg.name, round, batch[i], err)
				}
			}
			for _, e := range batch {
				if err := ref.InsertEdge(e.U, e.V, e.W); err != nil {
					fail("%s round %d: ref insert: %v", cfg.name, round, err)
				}
			}
		}
		applyDeletes := func(round int, batch []parmsf.EdgeKey) {
			if len(batch) == 0 {
				return
			}
			errs := f.DeleteEdges(batch)
			if f.Poisoned() != nil {
				onPoison(round, errs)
				errs = f.DeleteEdges(batch)
			}
			for i, err := range errs {
				if err != nil {
					fail("%s round %d: delete %v: %v", cfg.name, round, batch[i], err)
				}
			}
			for _, k := range batch {
				if err := ref.DeleteEdge(k.U, k.V); err != nil {
					fail("%s round %d: ref delete: %v", cfg.name, round, err)
				}
			}
		}

		applyInserts(0, freshBatch(2*n))
		rounds := steps / 16
		if rounds < 8*len(cfg.points) {
			rounds = 8 * len(cfg.points)
		}
		for round := 1; round <= rounds; round++ {
			if armed == "" {
				armed = cfg.points[pi%len(cfg.points)]
				pi++
				if err := f.ArmFault(armed); err != nil {
					fail("%s: ArmFault(%q): %v", cfg.name, armed, err)
				}
			}
			applyInserts(round, freshBatch(10))
			applyDeletes(round, deleteBatch(6))
			if f.Weight() != ref.Weight() || f.Size() != ref.ForestSize() {
				fail("%s round %d: (w=%d,s=%d) vs ref (w=%d,s=%d)",
					cfg.name, round, f.Weight(), f.Size(), ref.Weight(), ref.ForestSize())
			}
		}
		for _, p := range cfg.points {
			if fired[p] == 0 {
				fail("%s: crash point %q never fired in %d rounds", cfg.name, p, rounds)
			}
		}
		f.Close()
	}
	fmt.Printf("msfcheck: OK — crash mode: %d injected panics recovered across %d configurations on n=%d in %v\n",
		recoveries, len(configs), n, time.Since(start).Round(time.Millisecond))
}
