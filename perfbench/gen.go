package main

import (
	"math/rand/v2"

	"parmsf"
)

// op is one generated edge update: an insertion of (U, V) with weight W,
// or, when Del is set, a deletion of the live edge (U, V). U < V always.
type op struct {
	Del  bool
	U, V int
	W    int64
}

func (o op) update() parmsf.Update { return parmsf.Update{Delete: o.Del, U: o.U, V: o.V, W: o.W} }

// Random streams of one instance: the update stream, the arrival
// schedule and the reader's queries draw from independent generators.
const (
	streamOps = iota + 1
	streamArrivals
	streamReads
)

// stream returns random stream s of instance k of a run with seed.
func stream(seed uint64, k int, s uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(k)<<8|s))
}

// maxWeight bounds generated weights; every weight is distinct, so each
// graph has exactly one minimum spanning forest and every engine
// configuration must agree on it edge for edge.
const maxWeight = 1 << 40

// gen generates valid update streams from a seed. It tracks the live edge
// set as the stream would leave it when applied in order, so it never
// deletes an absent edge and never inserts a live one.
type gen struct {
	rng  *rand.Rand
	live []parmsf.Edge      // live edges, U < V
	at   map[[2]int]int     // canonical key -> index in live
	used map[int64]struct{} // every weight ever issued
	pair func(r *rand.Rand) (int, int)
}

// newGen returns the generator of instance k of a run with seed, whose
// candidate endpoint pairs come from pair.
func newGen(seed uint64, k int, pair func(r *rand.Rand) (int, int)) *gen {
	return &gen{
		rng:  stream(seed, k, streamOps),
		at:   make(map[[2]int]int),
		used: make(map[int64]struct{}),
		pair: pair,
	}
}

// uniformPairs draws both endpoints uniformly from [0, n).
func uniformPairs(n int) func(r *rand.Rand) (int, int) {
	return func(r *rand.Rand) (int, int) { return r.IntN(n), r.IntN(n) }
}

// shardPairs draws u uniformly and v from another shard with probability
// crossPct/100, else from u's own shard. owner maps a vertex to its shard.
func shardPairs(n, k, crossPct int, owner func(v int) int) func(r *rand.Rand) (int, int) {
	verts := make([][]int, k)
	for v := 0; v < n; v++ {
		s := owner(v)
		verts[s] = append(verts[s], v)
	}
	return func(r *rand.Rand) (int, int) {
		u := r.IntN(n)
		s := owner(u)
		if r.IntN(100) < crossPct {
			s = (s + 1 + r.IntN(k-1)) % k
		}
		vs := verts[s]
		return u, vs[r.IntN(len(vs))]
	}
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// weight returns a fresh random weight, distinct from every earlier one.
func (g *gen) weight() int64 {
	for {
		w := 1 + g.rng.Int64N(maxWeight)
		if _, dup := g.used[w]; !dup {
			g.used[w] = struct{}{}
			return w
		}
	}
}

// fresh returns a pair that is not live, with a fresh weight, without
// recording it as live.
func (g *gen) fresh() parmsf.Edge {
	for {
		u, v := g.pair(g.rng)
		if u == v {
			continue
		}
		k := key(u, v)
		if _, ok := g.at[k]; ok {
			continue
		}
		return parmsf.Edge{U: k[0], V: k[1], W: g.weight()}
	}
}

// insert returns an insertion of a fresh (not live) pair.
func (g *gen) insert() op {
	e := g.fresh()
	g.at[key(e.U, e.V)] = len(g.live)
	g.live = append(g.live, e)
	return op{U: e.U, V: e.V, W: e.W}
}

// delete returns a deletion of a uniformly random live edge.
func (g *gen) delete() op {
	i := g.rng.IntN(len(g.live))
	e := g.live[i]
	last := len(g.live) - 1
	g.live[i] = g.live[last]
	g.at[key(g.live[i].U, g.live[i].V)] = i
	g.live = g.live[:last]
	delete(g.at, key(e.U, e.V))
	return op{Del: true, U: e.U, V: e.V}
}

// mixed returns a deletion or an insertion with equal probability (an
// insertion when nothing is live).
func (g *gen) mixed() op {
	if len(g.live) == 0 || g.rng.IntN(2) == 0 {
		return g.insert()
	}
	return g.delete()
}

// grow inserts fresh pairs until m edges are live and returns a copy of
// the live set: the base graph a workload loads before it measures.
func (g *gen) grow(m int) []parmsf.Edge {
	for len(g.live) < m {
		g.insert()
	}
	return append([]parmsf.Edge(nil), g.live...)
}
