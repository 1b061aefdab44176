package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"parmsf"
	"parmsf/internal/baseline"
	"parmsf/internal/xrand"
)

// This file is the differential driver every mode shares: the op type, the
// subject interface, the Kruskal reference, the outcome and agreement
// checks, the churn stream and the edge-list loader.

// op is one update: the insertion of edge (u, v) with weight w or, with
// del, the deletion of edge (u, v).
type op struct {
	u, v int
	w    parmsf.Weight
	del  bool
}

func (o op) String() string {
	if o.del {
		return fmt.Sprintf("delete (%d,%d)", o.u, o.v)
	}
	return fmt.Sprintf("insert (%d,%d,%d)", o.u, o.v, o.w)
}

// to applies o to s.
func (o op) to(s subject) error {
	if o.del {
		return s.Delete(o.u, o.v)
	}
	return s.Insert(o.u, o.v, o.w)
}

// subject is a minimum spanning forest under test. *parmsf.Forest and
// *cluster.Cluster satisfy it, and kruskal adapts the reference to it.
type subject interface {
	Insert(u, v int, w parmsf.Weight) error
	Delete(u, v int) error
	Connected(u, v int) bool
	Weight() parmsf.Weight
	Size() int
	Components() int
}

// named is a subject with the name its failures report.
type named struct {
	name string
	subject
}

// closeAll closes every subject that holds goroutines.
func closeAll(subs []named) {
	for _, s := range subs {
		if c, ok := s.subject.(interface{ Close() }); ok {
			c.Close()
		}
	}
}

// kruskal is the reference every mode checks against: the baseline MSF,
// recomputed from scratch on every update, returning the public API's error
// for each update the API rejects.
type kruskal struct {
	*baseline.Kruskal
	n int
}

func newKruskal(n int) kruskal { return kruskal{baseline.NewKruskal(n), n} }

func (k kruskal) Insert(u, v int, w parmsf.Weight) error {
	if u < 0 || u >= k.n || v < 0 || v >= k.n || w < parmsf.MinWeight || w == math.MaxInt64 {
		return parmsf.ErrBadEdge
	}
	switch k.InsertEdge(u, v, w) {
	case nil:
		return nil
	case baseline.ErrExists:
		return parmsf.ErrExists
	}
	return parmsf.ErrBadEdge // a self loop
}

func (k kruskal) Delete(u, v int) error {
	if k.DeleteEdge(u, v) != nil {
		return parmsf.ErrNotFound
	}
	return nil
}

func (k kruskal) Size() int       { return k.ForestSize() }
func (k kruskal) Components() int { return k.n - k.ForestSize() }

// apply applies o to ref and then to every subject, and fails unless each
// subject returns ref's error. It returns ref's error.
func apply(ref subject, subs []named, o op) (refErr, err error) {
	refErr = o.to(ref)
	for _, s := range subs {
		if got := o.to(s); !errors.Is(got, refErr) {
			return refErr, fmt.Errorf("%s: %v: %v, reference %v", s.name, o, got, refErr)
		}
	}
	return refErr, nil
}

// agree fails unless every subject reports ref's forest weight, forest size
// and component count, and ref's answer to Connected on each pair.
func agree(ref subject, subs []named, pairs ...[2]int) error {
	for _, s := range subs {
		if s.Weight() != ref.Weight() || s.Size() != ref.Size() || s.Components() != ref.Components() {
			return fmt.Errorf("%s: (w=%d,s=%d,c=%d), reference (w=%d,s=%d,c=%d)", s.name,
				s.Weight(), s.Size(), s.Components(), ref.Weight(), ref.Size(), ref.Components())
		}
		for _, p := range pairs {
			if got, want := s.Connected(p[0], p[1]), ref.Connected(p[0], p[1]); got != want {
				return fmt.Errorf("%s: Connected(%d,%d) = %v, reference %v", s.name, p[0], p[1], got, want)
			}
		}
	}
	return nil
}

// churn is the seeded update stream of the default and -snapshot modes.
// Each step draws, three times in five or while no edge is live, an insert
// of a uniformly random vertex pair with the next weight — a self loop
// skips the step, and an already-live pair is rejected — and otherwise the
// delete of a uniformly random live edge.
type churn struct {
	rng   *xrand.RNG
	n     int
	live  []op // accepted inserts not yet deleted
	nextW parmsf.Weight
}

func newChurn(n int, seed uint64) *churn { return &churn{rng: xrand.New(seed), n: n, nextW: 1} }

// run drives steps steps of the stream through apply and agree; after, when
// non-nil, adds a mode's own checks once each op has been applied.
func (c *churn) run(ref subject, subs []named, steps int, after func(step int, o op) error) error {
	for step := 0; step < steps; step++ {
		var o op
		if c.rng.Intn(5) < 3 || len(c.live) == 0 {
			u, v := c.rng.Intn(c.n), c.rng.Intn(c.n)
			if u == v {
				continue
			}
			o = op{u: u, v: v, w: c.nextW}
			c.nextW++
		} else {
			i := c.rng.Intn(len(c.live))
			o, o.del = c.live[i], true
			c.live[i] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
		}
		refErr, err := apply(ref, subs, o)
		if err == nil {
			err = agree(ref, subs)
		}
		if err == nil && after != nil {
			err = after(step, o)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if !o.del && refErr == nil {
			c.live = append(c.live, o)
		}
	}
	return nil
}

// loadEdges reads an edge list: one "u v w" triple per line, blank lines
// and #-comments skipped. The vertex count is the largest endpoint plus
// one. Path "-" selects the builtin list instead: 4n distinct random pairs
// on n = 96 vertices drawn from seed, weighted 1, 2, ... in draw order.
func loadEdges(path string, seed uint64) (int, []parmsf.Edge, error) {
	var edges []parmsf.Edge
	if path == "-" {
		const n = 96
		rng := xrand.New(seed + 2718)
		seen := map[[2]int]bool{}
		for len(edges) < 4*n {
			u, v := rng.Intn(n), rng.Intn(n)
			k := [2]int{min(u, v), max(u, v)}
			if u == v || seen[k] {
				continue
			}
			seen[k] = true
			edges = append(edges, parmsf.Edge{U: u, V: v, W: parmsf.Weight(len(edges) + 1)})
		}
		return n, edges, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	maxV := 1
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e parmsf.Edge
		if k, err := fmt.Sscan(line, &e.U, &e.V, &e.W); err != nil || k != 3 {
			return 0, nil, fmt.Errorf("%s:%d: want \"u v w\", got %q", path, i+1, line)
		}
		edges = append(edges, e)
		maxV = max(maxV, e.U, e.V)
	}
	return maxV + 1, edges, nil
}

// edgeSet returns the edges each lists, keyed by ordered endpoints.
func edgeSet(each func(func(u, v int, w parmsf.Weight) bool)) map[[2]int]parmsf.Weight {
	out := map[[2]int]parmsf.Weight{}
	each(func(u, v int, w parmsf.Weight) bool {
		out[[2]int{min(u, v), max(u, v)}] = w
		return true
	})
	return out
}
