package graph

import (
	"testing"
	"testing/quick"
)

// TestQuickGraphScripts: arbitrary insert/delete scripts must keep M(),
// Find, Degree and the adjacency lists mutually consistent.
func TestQuickGraphScripts(t *testing.T) {
	run := func(ops []uint32, nRaw uint8) bool {
		n := int(nRaw)%20 + 2
		g := New(n, 3)
		live := map[[2]int]bool{}
		norm := func(u, v int) [2]int {
			if u > v {
				u, v = v, u
			}
			return [2]int{u, v}
		}
		if len(ops) > 300 {
			ops = ops[:300]
		}
		for _, op := range ops {
			u := int(op>>1) % n
			v := int(op>>9) % n
			if u == v {
				continue
			}
			k := norm(u, v)
			if op&1 == 0 {
				_, err := g.Insert(u, v, int64(op))
				switch {
				case live[k] && err != ErrExists:
					return false
				case !live[k] && err == nil:
					live[k] = true
				case !live[k] && err != nil && err != ErrDegree:
					return false
				}
			} else {
				_, err := g.Delete(u, v)
				if live[k] != (err == nil) {
					return false
				}
				delete(live, k)
			}
		}
		if g.M() != len(live) {
			return false
		}
		// Degrees must match live incidences; Find must agree with live.
		deg := make([]int, n)
		for k := range live {
			deg[k[0]]++
			deg[k[1]]++
			if g.Find(k[0], k[1]) < 0 {
				return false
			}
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != deg[v] || deg[v] > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
