package core

import (
	"strings"
	"testing"

	"parmsf/internal/xrand"
)

// buildChurned returns an engine that has seen enough churn to have a rich
// structure (registered chunks, multi-chunk tours).
func buildChurned(t *testing.T, n int) *MSF {
	t.Helper()
	m := NewMSF(n, Config{}, SeqCharger{})
	rng := xrand.New(uint64(n) + 99)
	type pair struct{ u, v int }
	var live []pair
	w := Weight(1)
	for step := 0; step < 1500; step++ {
		if rng.Intn(5) < 3 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := m.InsertEdge(u, v, w); err == nil {
				live = append(live, pair{u, v})
			}
			w += Weight(1 + rng.Intn(3))
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if err := m.DeleteEdge(p.u, p.v); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if err := m.Store().CheckInvariants(); err != nil {
		t.Fatalf("pre-corruption state invalid: %v", err)
	}
	return m
}

// firstRegistered returns some registered chunk.
func firstRegistered(st *Store) *Chunk {
	for _, c := range st.chunks {
		if c != nil {
			return c
		}
	}
	return nil
}

// TestCheckerDetectsCorruption mutation-tests CheckInvariants: each
// hand-planted corruption of a distinct state class must be caught. This is
// what makes the green property tests meaningful.
func TestCheckerDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(st *Store) bool // returns false if inapplicable
		expect  string               // substring of the error
	}{
		{"cadj-entry-low", func(st *Store) bool {
			c := firstRegistered(st)
			if c == nil {
				return false
			}
			st.row(c.id)[c.id] = 1 // phantom intra-chunk edge
			return true
		}, "CAdj"},
		{"cadj-entry-cleared", func(st *Store) bool {
			for _, c := range st.chunks {
				if c == nil {
					continue
				}
				row := st.row(c.id)
				for j := range row {
					if row[j] != Inf {
						row[j] = Inf
						return true
					}
				}
			}
			return false
		}, "CAdj"},
		{"principal-flag", func(st *Store) bool {
			for _, pc := range st.pcs {
				if pc != nil && pc.ringNext != pc {
					pc.ringNext.principal = true // second principal in ring
					return true
				}
			}
			return false
		}, "principal"},
		{"ring-broken", func(st *Store) bool {
			for _, pc := range st.pcs {
				if pc != nil && pc.ringNext != pc {
					pc.ringNext.ringPrev = pc.ringNext // snap the back link
					return true
				}
			}
			return false
		}, "ring"},
		{"btc-agg", func(st *Store) bool {
			c := firstRegistered(st)
			if c == nil {
				return false
			}
			leaf := c.bt
			for !leaf.IsLeaf() {
				leaf = leaf.Left()
			}
			leaf.Agg = btAgg{copies: 1, edges: leaf.Agg.edges + 1}
			return true
		}, "agg"},
		{"cyclic-order", func(st *Store) bool {
			for _, cp := range st.pcs {
				if cp != nil && cp.next != cp && cp.next.next != cp {
					// Swap two forward pointers within one tour.
					a, b := cp.next, cp.next.next
					cp.next = b
					a.next = cp // garbage the local order
					return true
				}
			}
			return false
		}, "cyclic"},
		{"cadj-beyond-high-water", func(st *Store) bool {
			// No loop writes an aggregate cell at or above hi, so only the
			// checker's sweep over all J ids can see one.
			for _, t := range st.normal {
				if !t.root.IsLeaf() && st.hi < st.J {
					t.root.Agg.cadj[st.hi] = 1
					return true
				}
			}
			return false
		}, "LSDS"},
		{"pcid", func(st *Store) bool {
			for v, pc := range st.pcs {
				if pc != nil && pc.chunk.id >= 0 {
					st.pcid[v] = -1 // scans would skip v's edges
					return true
				}
			}
			return false
		}, "pcid"},
		{"occurrence-anchors-dropped", func(st *Store) bool {
			for id, a := range st.occU {
				if a != nil {
					st.occU[id], st.occV[id] = nil, nil // edge leaves the forest
					return true
				}
			}
			return false
		}, "copies"},
		{"occurrence-anchor-half", func(st *Store) bool {
			for id, a := range st.occU {
				if a != nil {
					st.occV[id] = nil
					return true
				}
			}
			return false
		}, "anchor"},
		{"vertex-edge-without-state", func(st *Store) bool {
			for v, pc := range st.pcs {
				if pc != nil && st.g.Degree(v) > 0 {
					st.pcs[v], st.pcid[v] = nil, -1 // v's edges lose their copy
					return true
				}
			}
			return false
		}, "no state"},
		{"row-beyond-high-water", func(st *Store) bool {
			if st.hi == st.J {
				return false
			}
			row := make([]Weight, st.J)
			fillInf(row)
			st.rows = append(st.rows, row) // a row for id hi, never handed out
			return true
		}, "rows exist"},
		{"chunk-id-table", func(st *Store) bool {
			c := firstRegistered(st)
			if c == nil {
				return false
			}
			st.chunks[c.id] = nil // registry lies
			return true
		}, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := buildChurned(t, 32)
			if !tc.corrupt(m.Store()) {
				t.Skip("corruption not applicable to this state")
			}
			err := m.Store().CheckInvariants()
			if err == nil {
				t.Fatalf("checker missed corruption %q", tc.name)
			}
			if tc.expect != "" && !strings.Contains(err.Error(), tc.expect) {
				t.Logf("caught with different class: %v", err)
			}
		})
	}
}

// TestVerifyToursDetectsMembershipCorruption mutation-tests the forest
// membership check of VerifyTours, the one check that sees both records:
// the occurrence anchors CheckInvariants validates and the link-cut
// forest's edges by ID. Each corruption leaves CheckInvariants green.
func TestVerifyToursDetectsMembershipCorruption(t *testing.T) {
	treeIDs := func(m *MSF) []int32 {
		var ids []int32
		for i := range m.st.occU {
			if m.st.isTree(int32(i)) {
				ids = append(ids, int32(i))
			}
		}
		return ids
	}
	cases := []struct {
		name    string
		corrupt func(m *MSF)
		expect  string
	}{
		{"cut-behind-core", func(m *MSF) { m.lf.Cut(treeIDs(m)[0]) }, "linked false"},
		{"ids-swapped", func(m *MSF) {
			ids := treeIDs(m)
			a, b := ids[0], ids[len(ids)-1]
			au, av, aw, _ := m.lf.Linked(a)
			bu, bv, bw, _ := m.lf.Linked(b)
			m.lf.Cut(a)
			m.lf.Cut(b)
			m.lf.Link(au, av, aw, b)
			m.lf.Link(bu, bv, bw, a)
		}, "linked as"},
		{"forest-size", func(m *MSF) { m.size++ }, "ForestSize"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := buildChurned(t, 32)
			if err := m.VerifyTours(); err != nil {
				t.Fatalf("pre-corruption state invalid: %v", err)
			}
			tc.corrupt(m)
			if err := m.Store().CheckInvariants(); err != nil {
				t.Fatalf("CheckInvariants saw the corruption itself: %v", err)
			}
			err := m.VerifyTours()
			if err == nil {
				t.Fatalf("VerifyTours missed corruption %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.expect) {
				t.Fatalf("VerifyTours caught %q as %v, want %q", tc.name, err, tc.expect)
			}
		})
	}
}

// TestTourConnectivityMatchesLCT: the tour partition must agree with the
// link-cut forest on every pair, after heavy churn.
func TestTourConnectivityMatchesLCT(t *testing.T) {
	m := buildChurned(t, 48)
	st := m.Store()
	for u := 0; u < 48; u++ {
		for v := u; v < 48; v++ {
			if st.SameTour(u, v) != m.Connected(u, v) {
				t.Fatalf("tour partition and LCT disagree on (%d,%d)", u, v)
			}
		}
	}
}

// TestPathMiddleChurn: adversarial stream — repeatedly cut the exact middle
// edge of a long path (maximal tour splits) and re-add it.
func TestPathMiddleChurn(t *testing.T) {
	const n = 300
	m := NewMSF(n, Config{}, SeqCharger{})
	for i := 0; i+1 < n; i++ {
		if err := m.InsertEdge(i, i+1, Weight(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	mid := n / 2
	for round := 0; round < 60; round++ {
		if err := m.DeleteEdge(mid, mid+1); err != nil {
			t.Fatal(err)
		}
		if m.Connected(0, n-1) {
			t.Fatal("path still connected after middle cut")
		}
		if err := m.InsertEdge(mid, mid+1, Weight(n+round)); err != nil {
			t.Fatal(err)
		}
		if !m.Connected(0, n-1) {
			t.Fatal("path not reconnected")
		}
		if round%10 == 0 {
			if err := m.Store().CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
