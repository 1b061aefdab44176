package ternary

import (
	"testing"
	"testing/quick"

	"parmsf/internal/baseline"
	"parmsf/internal/xrand"
)

// TestQuickWrapperScripts: arbitrary op scripts through the wrapper must
// match a flat Kruskal on the original graph, and gadget bookkeeping must
// audit clean after every script.
func TestQuickWrapperScripts(t *testing.T) {
	type script struct {
		Seed uint64
		N    uint8
		Ops  []uint32
	}
	run := func(s script) bool {
		n := int(s.N)%20 + 3
		if len(s.Ops) > 200 {
			s.Ops = s.Ops[:200]
		}
		w := newCoreWrapper(n, 8*n)
		ref := baseline.NewKruskal(n)
		rng := xrand.New(s.Seed)
		type pair struct{ u, v int }
		var live []pair
		wt := int64(1)
		for _, op := range s.Ops {
			u := int(op>>1) % n
			v := int(op>>9) % n
			if op&1 == 0 || len(live) == 0 {
				if u == v {
					continue
				}
				e1 := w.InsertEdge(u, v, wt)
				if e1 == ErrCapacity {
					continue
				}
				e2 := ref.InsertEdge(u, v, wt)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
				if e1 == nil {
					live = append(live, pair{u, v})
				}
				wt++
			} else {
				i := rng.Intn(len(live))
				p := live[i]
				if w.DeleteEdge(p.u, p.v) != nil || ref.DeleteEdge(p.u, p.v) != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if w.Weight() != ref.Weight() || w.ForestSize() != ref.ForestSize() {
				return false
			}
		}
		return w.CheckGadget() == nil
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
