package core

import (
	"testing"

	"parmsf/internal/pram"
)

// TestEntryScanSkips pins which deletions rescan a CAdj entry pair. The core
// is a K=8 path spread over several registered chunks, plus chords between
// two of its chunks A and B and one chord inside A. Each step deletes one
// edge and counts the entry-pair scans it ran:
//   - a non-tree edge strictly heavier than its entry's minimum: none;
//   - the edge setting that minimum: one;
//   - a non-tree edge inside one chunk: none;
//   - a tree edge whose endpoints' principal copies share a chunk: none.
//
// The structure must stay valid after every step, under both chargers.
func TestEntryScanSkips(t *testing.T) {
	for _, tc := range []struct {
		name string
		ch   Charger
	}{
		{"seq", SeqCharger{}},
		{"pram", PRAMCharger{M: pram.New(false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 64
			m := NewMSF(n, Config{K: 8}, tc.ch)
			st := m.Store()
			for v := 0; v+1 < n; v++ {
				mustIns(t, m, v, v+1, Weight(v+1))
			}
			chunk := func(v int) *Chunk { return st.pcs[v].chunk }
			// Interior path vertices (degree 2, room for one chord), grouped
			// by principal chunk in path order.
			var order []*Chunk
			free := map[*Chunk][]int{}
			for v := 1; v+1 < n; v++ {
				c := chunk(v)
				if free[c] == nil {
					order = append(order, c)
				}
				free[c] = append(free[c], v)
			}
			// A takes four chord ends and B two; the chunk between them keeps
			// every path edge out of their entry.
			var a, b []int
			for i, c := range order {
				if a == nil && len(free[c]) >= 4 {
					a = free[c]
				} else if a != nil && order[i-1] != chunk(a[0]) && len(free[c]) >= 2 {
					b = free[c]
					break
				}
			}
			if b == nil {
				t.Fatal("fixture has no two chunks with room for the chords")
			}
			// a is ascending, so a[1] and a[3] are not path neighbours.
			mustIns(t, m, a[0], b[0], 1000)
			mustIns(t, m, a[2], b[1], 2000)
			mustIns(t, m, a[1], a[3], 3000)
			cA, cB := chunk(a[0]), chunk(b[0])
			for _, v := range a[1:4] {
				if chunk(v) != cA {
					cA = nil
				}
			}
			if cA == nil || cA.id < 0 || cB.id < 0 || cA == cB || chunk(b[1]) != cB ||
				st.row(cA.id)[cB.id] != 1000 {
				t.Fatal("entry (A, B) is not set by the chord of weight 1000; fixture needs new vertices")
			}
			checkAll(t, m)

			step := func(name string, u, v, want int) {
				t.Helper()
				before := st.Stats().EntryScans
				if err := m.DeleteEdge(u, v); err != nil {
					t.Fatal(err)
				}
				if got := st.Stats().EntryScans - before; got != int64(want) {
					t.Errorf("%s: %d entry scans, want %d", name, got, want)
				}
				checkAll(t, m)
			}
			step("heavier than the entry", a[2], b[1], 0)
			step("the entry's minimum", a[0], b[0], 1)
			step("inside one chunk", a[1], a[3], 0)
			for v := 0; v+1 < n; v++ {
				if c := chunk(v); c.id >= 0 && c == chunk(v+1) {
					step("tree edge inside one chunk", v, v+1, 0)
					return
				}
			}
			t.Fatal("no path edge inside one registered chunk")
		})
	}
}
