package pram

import (
	"strings"
	"testing"
)

func TestAccounting(t *testing.T) {
	m := New(false)
	m.Step(8, func(p int) {})
	m.Step(4, func(p int) {})
	m.Seq(10)
	if m.Time != 12 {
		t.Fatalf("Time = %d, want 12", m.Time)
	}
	if m.Work != 8+4+10 {
		t.Fatalf("Work = %d, want 22", m.Work)
	}
	if m.MaxActive != 8 {
		t.Fatalf("MaxActive = %d, want 8", m.MaxActive)
	}
}

func TestStepRunsAllProcessors(t *testing.T) {
	m := New(false)
	seen := make([]bool, 16)
	m.Step(16, func(p int) { seen[p] = true })
	for p, ok := range seen {
		if !ok {
			t.Fatalf("processor %d did not run", p)
		}
	}
}

func TestStepZeroActiveFree(t *testing.T) {
	m := New(false)
	m.Step(0, func(p int) { t.Fatal("ran with zero active") })
	if m.Time != 0 || m.Work != 0 {
		t.Fatal("zero-width step charged time or work")
	}
}

func TestBroadcastCost(t *testing.T) {
	m := New(false)
	m.Broadcast(1)
	if m.Time != 0 {
		t.Fatal("broadcast to one processor should be free")
	}
	m.Broadcast(8)
	if m.Time != 3 {
		t.Fatalf("Broadcast(8) depth = %d, want 3", m.Time)
	}
	m2 := New(false)
	m2.Broadcast(9)
	if m2.Time != 4 {
		t.Fatalf("Broadcast(9) depth = %d, want 4", m2.Time)
	}
}

func TestEREWViolationDetected(t *testing.T) {
	m := New(true)
	s := m.NewSpace("A", 4)
	m.Step(2, func(p int) { s.Touch(p, 1) }) // both processors hit cell 1
	v := m.Violations()
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if !strings.Contains(v[0], "A[1]") {
		t.Fatalf("violation message %q does not name the cell", v[0])
	}
}

func TestExclusiveAccessesAllowed(t *testing.T) {
	m := New(true)
	s := m.NewSpace("A", 8)
	// Disjoint cells in one round: fine.
	m.Step(8, func(p int) { s.Touch(p, p) })
	// Same cell in different rounds: fine.
	m.Step(1, func(p int) { s.Touch(p, 3) })
	m.Step(1, func(p int) { s.Touch(p, 3) })
	// Same processor touching a cell twice in one round (read-modify-write):
	// fine.
	m.Step(1, func(p int) { s.Touch(p, 5); s.Touch(p, 5) })
	if v := m.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestSeqAdvancesStamp(t *testing.T) {
	// A Seq charge between two rounds must separate their exclusivity
	// windows.
	m := New(true)
	s := m.NewSpace("A", 2)
	m.Step(1, func(p int) { s.Touch(p, 0) })
	m.Seq(1)
	m.Step(1, func(p int) { s.Touch(p, 0) })
	if v := m.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCheckOffCostsNothing(t *testing.T) {
	m := New(false)
	s := m.NewSpace("A", 0) // zero-size: Touch must still be safe when off
	m.Step(4, func(p int) { s.Touch(p, 123456) })
	if len(m.Violations()) != 0 {
		t.Fatal("violations recorded with checking off")
	}
}

func TestReset(t *testing.T) {
	m := New(true)
	s := m.NewSpace("A", 1)
	m.Step(2, func(p int) { s.Touch(p, 0) })
	m.Reset()
	if m.Time != 0 || m.Work != 0 || len(m.Violations()) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func BenchmarkStepOverheadUnchecked(b *testing.B) {
	m := New(false)
	for i := 0; i < b.N; i++ {
		m.Step(64, func(p int) {})
	}
}

func BenchmarkTouchChecked(b *testing.B) {
	m := New(true)
	s := m.NewSpace("A", 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(64, func(p int) { s.Touch(p, p) })
	}
}
