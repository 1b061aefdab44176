package core

import "parmsf/internal/pram"

// Charger accounts the cost of structural primitives. The sequential
// algorithm (Section 2) installs SeqCharger, whose costs are measured by the
// wall clock and whose hooks are no-ops. The parallel algorithm (Section 3)
// installs a PRAMCharger wrapping an EREW machine: every primitive charges
// the depth and width the corresponding lemma prescribes. The charger never
// changes what a primitive computes: the tournament-shaped ones (Lemma 3.1's
// row rebuild, Lemma 3.3's gamma minimum) scan on the host and charge the
// rounds their tournaments take (chargeRowTournament, chargeMinReduce).
// Entrywise vector loops over chunk ids (row clears, column pushes, gamma
// builds) run inline on the host: they touch only the ids below the
// high-water mark, too few to repay a round on the worker pool, while their
// Par charges stay at J processors.
type Charger interface {
	// Seq charges cost rounds of single-processor host work ("processor p1
	// does X", as in Lemmas 3.1-3.3).
	Seq(cost int)
	// Par charges one fixed-shape kernel of the given depth and width.
	Par(depth, width int)
	// Climb charges a balanced-tree sweep over width items: depth
	// ceil(log2 width), geometric width (total work O(width)).
	Climb(width int)
	// ParDo executes a data-parallel kernel of width independent
	// iterations. The sequential charger runs it as an inline uncharged
	// loop (wall clock measures it); the PRAM charger charges one round of
	// width work and executes f on the machine — for real, across the
	// worker pool, when the machine is a pram.NewParallel one. Kernels
	// must be EREW-clean: distinct p write distinct cells.
	ParDo(width int, f func(p int))
	// Apply executes width independent tasks on the executor WITHOUT
	// charging: it is the application half of a kernel whose model cost
	// the caller charges separately through Par/Climb (so the charged
	// shape follows the lemma, not the goroutine schedule). Tasks must
	// write disjoint cells and their combined result must not depend on
	// execution order.
	Apply(width int, f func(p int))
	// Machine returns the underlying PRAM, or nil for sequential execution.
	Machine() *pram.Machine
}

// SeqCharger is the free charger of the sequential driver.
type SeqCharger struct{}

// Seq implements Charger.
func (SeqCharger) Seq(int) {}

// Par implements Charger.
func (SeqCharger) Par(int, int) {}

// Climb implements Charger.
func (SeqCharger) Climb(int) {}

// ParDo implements Charger.
func (SeqCharger) ParDo(width int, f func(p int)) {
	for p := 0; p < width; p++ {
		f(p)
	}
}

// Apply implements Charger.
func (SeqCharger) Apply(width int, f func(p int)) {
	for p := 0; p < width; p++ {
		f(p)
	}
}

// Machine implements Charger.
func (SeqCharger) Machine() *pram.Machine { return nil }

// PRAMCharger charges costs on an EREW PRAM machine.
type PRAMCharger struct{ M *pram.Machine }

// Seq implements Charger.
func (c PRAMCharger) Seq(cost int) { c.M.Seq(int64(cost)) }

// Par implements Charger.
func (c PRAMCharger) Par(depth, width int) { c.M.Steps(depth, width) }

// Climb implements Charger.
func (c PRAMCharger) Climb(width int) {
	for w := width; w > 0; w /= 2 {
		c.M.Steps(1, w)
		if w == 1 {
			break
		}
	}
}

// ParDo implements Charger.
func (c PRAMCharger) ParDo(width int, f func(p int)) { c.M.Step(width, f) }

// Apply implements Charger.
func (c PRAMCharger) Apply(width int, f func(p int)) { c.M.Run(width, f) }

// Machine implements Charger.
func (c PRAMCharger) Machine() *pram.Machine { return c.M }

// log2ceil returns ceil(log2(x)) for x >= 1.
func log2ceil(x int) int {
	r := 0
	for w := 1; w < x; w *= 2 {
		r++
	}
	return r
}
