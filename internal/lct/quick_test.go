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
		type live struct {
			e    *Edge
			u, v int
		}
		var edges []live
		for _, op := range s.Ops {
			u := int(op>>2) % n
			v := int(op>>10) % n
			switch op & 3 {
			case 0, 1: // link if possible
				if u == v || ref.connected(u, v) {
					continue
				}
				w := int64(op >> 16)
				edges = append(edges, live{f.Link(u, v, w, int32(len(edges))), u, v})
				ref.link(u, v, w)
			case 2: // cut a pseudo-random live edge
				if len(edges) == 0 {
					continue
				}
				i := rng.Intn(len(edges))
				f.Cut(edges[i].e)
				ref.cut(edges[i].u, edges[i].v)
				edges[i] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
			case 3: // verify
				if f.Connected(u, v) != ref.connected(u, v) {
					return false
				}
				if u != v && ref.connected(u, v) {
					want, _ := ref.pathMax(u, v)
					if f.PathMaxEdge(u, v).W != want {
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
