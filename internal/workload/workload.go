// Package workload generates the graphs and update streams used by the
// experiments (internal/experiments): sparse random graphs (the paper's
// m = O(n) regime), degree-3-respecting generators for driving the core
// engine directly, denser graphs for the sparsification experiments, and
// churn update streams. All generators are deterministic in their seed.
package workload

import "parmsf/internal/xrand"

// Edge is a weighted undirected edge.
type Edge struct {
	U, V int
	W    int64
}

// OpKind discriminates stream operations.
type OpKind uint8

// Stream operation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
)

// Op is one update in a stream.
type Op struct {
	Kind OpKind
	U, V int
	W    int64
}

// Stream is an update sequence over vertices [0, N).
type Stream struct {
	N   int
	Ops []Op
}

// RandomSparse returns ~m distinct random edges over n vertices with unique
// weights (uniform random pairs, duplicates skipped).
func RandomSparse(n, m int, seed uint64) []Edge {
	rng := xrand.New(seed)
	seen := make(map[[2]int]bool, m)
	perm := rng.Perm(4 * m)
	var out []Edge
	for len(out) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, Edge{u, v, int64(perm[len(out)]) + 1})
	}
	return out
}

// DegreeBounded returns ~m random edges with every vertex degree at most
// maxDeg (for driving the degree-3 core engine directly). It may return
// fewer than m edges when the degree budget binds.
func DegreeBounded(n, m, maxDeg int, seed uint64) []Edge {
	rng := xrand.New(seed)
	deg := make([]int, n)
	seen := make(map[[2]int]bool, m)
	var out []Edge
	perm := rng.Perm(4*m + 4)
	attempts := 0
	for len(out) < m && attempts < 50*m {
		attempts++
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || deg[u] >= maxDeg || deg[v] >= maxDeg {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		deg[u]++
		deg[v]++
		out = append(out, Edge{u, v, int64(perm[len(out)]) + 1})
	}
	return out
}

// PrefAttach returns a preferential-attachment graph: each new vertex
// attaches d edges to earlier vertices with probability proportional to
// degree (skewed degrees; use with the degree-reduction wrapper).
func PrefAttach(n, d int, seed uint64) []Edge {
	rng := xrand.New(seed)
	var out []Edge
	var targets []int // vertex repeated per degree
	seen := make(map[[2]int]bool)
	w := int64(1)
	for v := 1; v < n; v++ {
		for j := 0; j < d && j < v; j++ {
			var u int
			if len(targets) == 0 {
				u = rng.Intn(v)
			} else {
				u = targets[rng.Intn(len(targets))]
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			out = append(out, Edge{a, b, w})
			w += int64(1 + rng.Intn(3))
			targets = append(targets, u, v)
		}
	}
	return out
}

// Churn builds a stream: load the base edges, then `steps` operations that
// keep roughly the base edge count by alternating random deletions of live
// edges and insertions of fresh random edges (weights unique and
// increasing). respectDeg3 restricts inserts to degree < 3 endpoints.
func Churn(n int, base []Edge, steps int, respectDeg3 bool, seed uint64) Stream {
	rng := xrand.New(seed)
	var ops []Op
	type pk = [2]int
	live := map[pk]bool{}
	deg := make([]int, n)
	nextW := int64(1)
	norm := func(u, v int) pk {
		if u > v {
			u, v = v, u
		}
		return pk{u, v}
	}
	var liveList []pk
	add := func(u, v int, w int64) {
		ops = append(ops, Op{OpInsert, u, v, w})
		k := norm(u, v)
		live[k] = true
		liveList = append(liveList, k)
		deg[u]++
		deg[v]++
		if w >= nextW {
			nextW = w + 1
		}
	}
	for _, e := range base {
		add(e.U, e.V, e.W)
	}
	for s := 0; s < steps; s++ {
		if rng.Bool() && len(liveList) > 0 {
			// Delete a random live edge.
			for tries := 0; tries < 10 && len(liveList) > 0; tries++ {
				i := rng.Intn(len(liveList))
				k := liveList[i]
				liveList[i] = liveList[len(liveList)-1]
				liveList = liveList[:len(liveList)-1]
				if !live[k] {
					continue
				}
				delete(live, k)
				deg[k[0]]--
				deg[k[1]]--
				ops = append(ops, Op{OpDelete, k[0], k[1], 0})
				break
			}
		} else {
			for tries := 0; tries < 20; tries++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || live[norm(u, v)] {
					continue
				}
				if respectDeg3 && (deg[u] >= 3 || deg[v] >= 3) {
					continue
				}
				add(u, v, nextW)
				break
			}
		}
	}
	return Stream{N: n, Ops: ops}
}

// WriterStreams builds the update side of the mixed reader/writer serving
// scenario (E16): q deterministic churn streams over disjoint vertex
// intervals of [0, n), one per concurrent writer. Disjointness makes the
// scenario conflict-free — no writer's insert can collide with another's
// live edge, so every submitted op succeeds regardless of interleaving —
// while queries still span intervals (cross-interval pairs are simply
// never connected). Each stream starts empty and alternates insertions of
// fresh edges with deletions of live ones, the same shape Churn produces.
func WriterStreams(n, q, steps int, seed uint64) []Stream {
	if q < 1 {
		q = 1
	}
	span := n / q
	if span < 2 {
		panic("workload: WriterStreams needs n/q >= 2")
	}
	out := make([]Stream, q)
	for i := range out {
		st := Churn(span, nil, steps, false, seed+uint64(i)*7919)
		for j := range st.Ops {
			st.Ops[j].U += i * span
			st.Ops[j].V += i * span
		}
		st.N = n
		out[i] = st
	}
	return out
}
