// Package pram simulates an EREW PRAM: synchronous rounds of processors with
// exclusive-read exclusive-write shared memory.
//
// The paper's parallel bounds (Theorem 3.1) are statements about this model:
// parallel worst-case time = number of synchronous rounds (depth), work =
// total processor-rounds, with the EREW restriction that no memory cell is
// touched by two processors in the same round. The simulator counts exactly
// those quantities and, in checked mode, verifies exclusivity on declared
// cell spaces, so a benchmark's measured Time/Work are the quantities the
// theorems bound.
//
// Sequential host manipulation (the paper frequently says "processor p1
// performs X in O(f) time") is charged through Seq, which advances Time and
// Work by the same amount — i.e. one processor working for f rounds.
//
// Two execution backends share the Machine type: New returns the classic
// sequential simulator, and NewParallel returns a machine that executes
// each round's kernel for real across a goroutine worker pool with a
// synchronous barrier per round (exec.go). The accounting is identical
// either way; only wall-clock time differs.
package pram

import "fmt"

// Machine is a simulated EREW PRAM. The zero value is ready to use with
// checking disabled. Machines from NewParallel additionally execute each
// round's kernel across a goroutine worker pool (see exec.go); the cost
// counters are backend-independent.
type Machine struct {
	Time      int64 // parallel rounds elapsed (depth)
	Work      int64 // total processor-rounds
	MaxActive int   // high-water mark of processors active in one round
	Check     bool  // verify EREW exclusivity on declared Spaces

	stepID     int64 // distinct id per round, for cell stamping
	violations []string

	workers int   // configured pool size; 0 or 1 = sequential
	pool    *pool // nil for sequential machines
}

// New returns a machine; check enables EREW exclusivity verification on
// Spaces created from it.
func New(check bool) *Machine {
	return &Machine{Check: check}
}

// Step executes one synchronous round with processors 0..active-1, calling
// f(p) for each. Each f(p) must perform O(1) simulated memory accesses
// (declared via Space.Touch in checked code paths). On a sequential machine
// the calls run in processor order; on a parallel machine they run
// concurrently on the worker pool with a barrier before Step returns, so
// kernels must be EREW-clean (distinct processors touch distinct cells).
// Both backends charge identically: one round, active work.
func (m *Machine) Step(active int, f func(p int)) {
	if active <= 0 {
		return
	}
	m.Time++
	m.Work += int64(active)
	if active > m.MaxActive {
		m.MaxActive = active
	}
	m.stepID++
	m.Run(active, f)
}

// Steps executes r identical-width rounds without running user code, for
// charging fixed-shape kernels whose effect the caller applies directly.
func (m *Machine) Steps(rounds int, active int) {
	if rounds <= 0 || active <= 0 {
		return
	}
	m.Time += int64(rounds)
	m.Work += int64(rounds) * int64(active)
	if active > m.MaxActive {
		m.MaxActive = active
	}
	m.stepID += int64(rounds)
}

// Seq charges cost rounds of single-processor (host) computation, the
// paper's "processor p1 does X" accounting.
func (m *Machine) Seq(cost int64) {
	if cost <= 0 {
		return
	}
	m.Time += cost
	m.Work += cost
	if m.MaxActive < 1 {
		m.MaxActive = 1
	}
	m.stepID += cost
}

// Absorb charges depth and work that were accounted on detached machines —
// e.g. the private per-node simulators of the sparsification tree, whose
// levels apply their sibling nodes concurrently and merge per-level max
// depth and summed work back into the shared machine. The caller is
// responsible for the merged quantities being worker-independent; Absorb
// itself is plain bookkeeping.
func (m *Machine) Absorb(time, work int64) {
	if time <= 0 && work <= 0 {
		return
	}
	if time > 0 {
		m.Time += time
		m.stepID += time
	}
	if work > 0 {
		m.Work += work
	}
	if m.MaxActive < 1 {
		m.MaxActive = 1
	}
}

// Reset clears counters and recorded violations.
func (m *Machine) Reset() {
	m.Time, m.Work, m.MaxActive = 0, 0, 0
	m.violations = nil
}

// Violations returns the recorded EREW violations (capped at 32).
func (m *Machine) Violations() []string { return m.violations }

func (m *Machine) violate(format string, args ...any) {
	if len(m.violations) < 32 {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

// Space tracks exclusivity for a block of simulated memory cells. The data
// itself lives in caller-owned arrays; kernels declare each access with
// Touch. When the machine's Check flag is off, all methods are no-ops, so
// production benchmarks pay nothing.
type Space struct {
	m        *Machine
	name     string
	lastStep []int64
	lastProc []int32
}

// NewSpace declares a block of n cells named name (for violation messages).
func (m *Machine) NewSpace(name string, n int) *Space {
	s := &Space{m: m, name: name}
	if m.Check {
		s.lastStep = make([]int64, n)
		s.lastProc = make([]int32, n)
	}
	return s
}

// Touch records that processor p accessed cell i during the current round.
// Two accesses to one cell in one round by different processors are an EREW
// violation; repeated access by the same processor is allowed.
func (s *Space) Touch(p, i int) {
	if s.lastStep == nil {
		return
	}
	m := s.m
	if s.lastStep[i] == m.stepID && s.lastProc[i] != int32(p) {
		m.violate("EREW violation: %s[%d] touched by processors %d and %d in round %d",
			s.name, i, s.lastProc[i], p, m.stepID)
		return
	}
	s.lastStep[i] = m.stepID
	s.lastProc[i] = int32(p)
}
