package core

import (
	"testing"

	"parmsf/internal/pram"
	"parmsf/internal/xrand"
)

// TestStressLarge runs longer streams at larger n with periodic full
// validation, catching scale-dependent issues (id exhaustion, deep LSDS
// shapes, many-chunk tours).
func TestStressLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, n := range []int{256, 1024} {
		n := n
		t.Run(sizeName(n), func(t *testing.T) {
			rng := xrand.New(uint64(31337 + n))
			m := NewMSF(n, Config{}, SeqCharger{})
			type pair struct{ u, v int }
			var live []pair
			nextW := Weight(1)
			steps := 8000
			for step := 0; step < steps; step++ {
				if rng.Intn(5) < 3 || len(live) == 0 {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					if err := m.InsertEdge(u, v, nextW); err == nil {
						live = append(live, pair{u, v})
					}
					nextW += Weight(1 + rng.Intn(7))
				} else {
					i := rng.Intn(len(live))
					p := live[i]
					if err := m.DeleteEdge(p.u, p.v); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if step%500 == 499 {
					if err := m.Store().CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v\n%s", step, err, m.DebugString())
					}
					wantW, wantN := kruskal(m.Graph())
					if m.Weight() != wantW || m.ForestSize() != wantN {
						t.Fatalf("step %d: (w=%d,n=%d) vs kruskal (w=%d,n=%d)",
							step, m.Weight(), m.ForestSize(), wantW, wantN)
					}
				}
			}
			// Teardown: delete everything, ending at an empty forest.
			for _, p := range live {
				if err := m.DeleteEdge(p.u, p.v); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Store().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if m.Weight() != 0 || m.ForestSize() != 0 {
				t.Fatalf("teardown left forest (w=%d,n=%d)", m.Weight(), m.ForestSize())
			}
		})
	}
}

// TestStressParallel runs a longer stream on the PRAM driver and validates
// the state every 500 steps.
func TestStressParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 256
	m := NewMSF(n, Config{}, PRAMCharger{M: pram.New(false)})
	rng := xrand.New(2025)
	type pair struct{ u, v int }
	var live []pair
	nextW := Weight(1)
	for step := 0; step < 4000; step++ {
		if rng.Intn(5) < 3 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := m.InsertEdge(u, v, nextW); err == nil {
				live = append(live, pair{u, v})
			}
			nextW += Weight(1 + rng.Intn(7))
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := m.DeleteEdge(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%500 == 499 {
			if err := m.Store().CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			wantW, wantN := kruskal(m.Graph())
			if m.Weight() != wantW || m.ForestSize() != wantN {
				t.Fatalf("step %d: weights diverged", step)
			}
		}
	}
}

// TestManyChunksSingleTour builds one giant tour (a spanning path) with a
// tiny K so its LSDS holds hundreds of chunks, then churns the middle.
func TestManyChunksSingleTour(t *testing.T) {
	const n = 2000
	m := NewMSF(n, Config{K: 8}, SeqCharger{})
	for i := 0; i+1 < n; i++ {
		if err := m.InsertEdge(i, i+1, Weight(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Store()
	count, _, _, _ := st.Occupancy()
	if count < 200 {
		t.Fatalf("expected hundreds of chunks, got %d", count)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Churn around the middle: cut and repair with heavier edges.
	for i := 0; i < 40; i++ {
		v := n/2 - 20 + i
		if err := m.DeleteEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
		if err := m.InsertEdge(v, v+1, Weight(10*n+i)); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Connected(0, n-1) {
		t.Fatal("giant tour disconnected")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	wantW, wantN := kruskal(m.Graph())
	if m.Weight() != wantW || m.ForestSize() != wantN {
		t.Fatal("diverged from Kruskal")
	}
}
