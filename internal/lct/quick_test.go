package lct

import (
	"testing"
	"testing/quick"

	"parmsf/internal/xrand"
)

// TestQuickLinkCutScripts replays quick-generated op scripts against the
// naive reference forest.
func TestQuickLinkCutScripts(t *testing.T) {
	type script struct {
		Seed uint64
		N    uint8
		Ops  []uint32
	}
	run := func(s script) bool {
		n := int(s.N)%30 + 2
		if len(s.Ops) > 400 {
			s.Ops = s.Ops[:400]
		}
		f := New(n)
		ref := newRef(n)
		rng := xrand.New(s.Seed)
		var live, free []int32 // a cut ID is relinked by the next link
		for _, op := range s.Ops {
			u := int(op>>2) % n
			v := int(op>>10) % n
			switch op & 3 {
			case 0, 1: // link if possible
				if u == v || ref.connected(u, v) {
					continue
				}
				w := int64(op >> 16)
				id := int32(len(live))
				if k := len(free); k > 0 {
					id, free = free[k-1], free[:k-1]
				}
				f.Link(u, v, w, id)
				live = append(live, id)
				ref.link(u, v, w)
			case 2: // cut a pseudo-random live edge
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				id := live[i]
				eu, ev, _, _ := f.Linked(id)
				f.Cut(id)
				ref.cut(eu, ev)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				free = append(free, id)
			case 3: // verify
				if f.Connected(u, v) != ref.connected(u, v) {
					return false
				}
				if u != v && ref.connected(u, v) {
					want, _ := ref.pathMax(u, v)
					if _, _, w, _ := f.Linked(f.PathMaxEdge(u, v)); w != want {
						return false
					}
				}
			}
		}
		// Final exhaustive connectivity audit.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b += 3 {
				if f.Connected(a, b) != ref.connected(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
