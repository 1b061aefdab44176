package pram

import (
	"sync/atomic"
	"testing"
)

// A kernel panic on a worker must not kill the process or deadlock the
// round barrier: it surfaces as a panic on the dispatching goroutine once
// the round's countdown resolves, and the pool stays usable afterwards.
func TestKernelPanicSurfacesOnDispatcher(t *testing.T) {
	m := NewParallel(4)
	defer m.Close()
	for round := 0; round < 3; round++ {
		var ran atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			m.Run(1<<12, func(p int) {
				if p == 1000 {
					panic("kernel boom")
				}
				ran.Add(1)
			})
			return nil
		}()
		if got != "kernel boom" {
			t.Fatalf("round %d: dispatcher recovered %v, want kernel boom", round, got)
		}
		// The pool must still run clean rounds to completion.
		var n atomic.Int64
		m.Run(1<<12, func(p int) { n.Add(1) })
		if n.Load() != 1<<12 {
			t.Fatalf("round %d after panic: ran %d of %d", round, n.Load(), 1<<12)
		}
	}
}
