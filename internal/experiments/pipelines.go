package experiments

import (
	"parmsf/internal/core"
	"parmsf/internal/pram"
	"parmsf/internal/sparsify"
	"parmsf/internal/ternary"
)

// newFlatEngine composes degree reduction around the sequential core
// structure — the Theorem 1.2 pipeline without sparsification.
func newFlatEngine(n, maxEdges int) *ternary.Wrapper {
	return ternary.New(n, maxEdges, func(gn int) ternary.Engine {
		return core.NewMSF(gn, core.Config{}, core.SeqCharger{})
	})
}

// newSparsifyEngine composes the full Theorem 1.1 pipeline: sparsification
// tree over degree-reduced core instances, on the pipeline scheduler parmsf
// runs.
func newSparsifyEngine(n int) *sparsify.Forest {
	f := sparsify.New(n, func(localN, maxEdges int) sparsify.Engine {
		return ternary.New(localN, maxEdges, func(gn int) ternary.Engine {
			return core.NewMSF(gn, core.Config{}, core.SeqCharger{})
		})
	})
	f.Pipeline = true
	return f
}

// newParSparsifyEngine builds the Section 5.3 parallel pipeline: every
// sparsification node runs the PRAM driver on a private machine, and the
// tree's DepthFn reads each node's accumulated depth so per-update parallel
// time is max-over-levels (levels proceed concurrently) plus coordination.
func newParSparsifyEngine(n int) *sparsify.Forest {
	f := sparsify.New(n, func(localN, maxEdges int) sparsify.Engine {
		mach := pram.New(false)
		return ternary.New(localN, maxEdges, func(gn int) ternary.Engine {
			return core.NewMSF(gn, core.Config{}, core.PRAMCharger{M: mach})
		})
	})
	f.DepthFn = func(e sparsify.Engine) int64 { return e.Machine().Time }
	f.Pipeline = true
	return f
}

// newBatchSparsifyTree builds the Section 5.3 batch pipeline the E15
// scheduler comparison measures: core-backed ternary nodes on private
// simulators, with node applications on mach's goroutine pool — spawned by
// the dependency pipeline when pipelined, else run as rounds of the
// level-barrier sweep. Mirrors the parmsf.Options{Sparsify, Workers} wiring
// minus the cost-counter plumbing, which both modes would pay identically:
// a one-worker machine has no pool, so its pipeline runs node tasks inline.
func newBatchSparsifyTree(n int, mach *pram.Machine, pipelined bool) *sparsify.Forest {
	f := sparsify.New(n, func(localN, maxEdges int) sparsify.Engine {
		nm := pram.New(false)
		return ternary.New(localN, maxEdges, func(gn int) ternary.Engine {
			return core.NewMSF(gn, core.Config{}, core.PRAMCharger{M: nm})
		})
	})
	if pipelined {
		f.Pipeline = true
		f.Spawn = mach.Spawn
	} else {
		f.Exec = func(tasks int, run func(t int)) { mach.Run(tasks, run) }
	}
	return f
}
