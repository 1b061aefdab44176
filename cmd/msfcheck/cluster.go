package main

import (
	"fmt"
	"os"
	"time"

	"parmsf"
	"parmsf/cluster"
	"parmsf/internal/baseline"
	"parmsf/internal/xrand"
)

// checkCluster cross-validates the sharded cluster package: every edge of
// the input is inserted one at a time, then every live edge deleted in a
// seeded random order, through k in {2, 4} clusters under both the
// contiguous-range and the hash placement, a flat single-forest twin, and
// the Kruskal baseline. After every operation all configurations must
// agree on Weight, Size and Components (tie-break independent across
// minimum spanning forests, so bit-equality is required even with
// duplicate weights), with Connected sampled on a rotating vertex pair.
// Path "-" selects a builtin deterministic random-sparse edge list.
func checkCluster(path string, seed uint64) {
	start := time.Now()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "msfcheck: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}

	var n int
	var edges []parmsf.Edge
	if path == "-" {
		n = 96
		rng := xrand.New(seed + 2718)
		seen := map[[2]int]bool{}
		for len(edges) < 4*n {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			k := [2]int{u, v}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			edges = append(edges, parmsf.Edge{U: u, V: v, W: int64(len(edges) + 1)})
		}
	} else {
		n, edges = parseEdgeList(path)
	}
	if n < 16 {
		fail("cluster check needs n >= 16 (got n=%d); 4-shard ranges would degenerate", n)
	}

	maxEdges := 4 * n
	if len(edges)+8 > maxEdges {
		maxEdges = len(edges) + 8
	}
	shardOpt := parmsf.Options{MaxEdges: maxEdges}

	flat := parmsf.MustNew(n, shardOpt)
	defer flat.Close()
	kr := baseline.NewKruskal(n)

	type cfg struct {
		name string
		c    *cluster.Cluster
	}
	var cfgs []cfg
	for _, k := range []int{2, 4} {
		cfgs = append(cfgs,
			cfg{fmt.Sprintf("k%d-ranges", k), cluster.MustNew(n, k, cluster.Options{Shard: shardOpt})},
			cfg{fmt.Sprintf("k%d-hash", k), cluster.MustNew(n, k, cluster.Options{Shard: shardOpt, Placement: cluster.Hash(k)})},
		)
	}
	defer func() {
		for _, cf := range cfgs {
			cf.c.Close()
		}
	}()

	rng := xrand.New(seed)
	step := 0
	verify := func(what string, u, v int) {
		for _, cf := range cfgs {
			if cf.c.Weight() != flat.Weight() || cf.c.Size() != flat.Size() || cf.c.Components() != flat.Components() {
				fail("step %d (%s %d,%d): %s (w=%d,s=%d,c=%d) vs flat (w=%d,s=%d,c=%d)",
					step, what, u, v, cf.name, cf.c.Weight(), cf.c.Size(), cf.c.Components(),
					flat.Weight(), flat.Size(), flat.Components())
			}
		}
		if flat.Weight() != kr.Weight() || flat.Size() != kr.ForestSize() {
			fail("step %d (%s %d,%d): flat (w=%d,s=%d) vs kruskal (w=%d,s=%d)",
				step, what, u, v, flat.Weight(), flat.Size(), kr.Weight(), kr.ForestSize())
		}
		if step%7 == 0 {
			a, b := rng.Intn(n), rng.Intn(n)
			want := kr.Connected(a, b)
			if flat.Connected(a, b) != want {
				fail("step %d: flat Connected(%d,%d) != kruskal %v", step, a, b, want)
			}
			for _, cf := range cfgs {
				if got := cf.c.Connected(a, b); got != want {
					fail("step %d: %s Connected(%d,%d)=%v want %v", step, cf.name, a, b, got, want)
				}
			}
		}
		step++
	}

	var live []parmsf.Edge
	for _, e := range edges {
		refErr := flat.Insert(e.U, e.V, e.W)
		for _, cf := range cfgs {
			if err := cf.c.Insert(e.U, e.V, e.W); (err == nil) != (refErr == nil) {
				fail("step %d: %s insert (%d,%d,%d): %v vs flat %v", step, cf.name, e.U, e.V, e.W, err, refErr)
			}
		}
		if refErr == nil {
			if err := kr.InsertEdge(e.U, e.V, e.W); err != nil {
				fail("step %d: kruskal rejects (%d,%d,%d): %v", step, e.U, e.V, e.W, err)
			}
			live = append(live, e)
		}
		verify("insert", e.U, e.V)
	}

	for _, i := range rng.Perm(len(live)) {
		e := live[i]
		if err := flat.Delete(e.U, e.V); err != nil {
			fail("step %d: flat delete (%d,%d): %v", step, e.U, e.V, err)
		}
		for _, cf := range cfgs {
			if err := cf.c.Delete(e.U, e.V); err != nil {
				fail("step %d: %s delete (%d,%d): %v", step, cf.name, e.U, e.V, err)
			}
		}
		kr.DeleteEdge(e.U, e.V)
		verify("delete", e.U, e.V)
	}
	if flat.Size() != 0 || flat.Weight() != 0 {
		fail("final state not empty: size=%d weight=%d", flat.Size(), flat.Weight())
	}

	fmt.Printf("msfcheck: OK — cluster parity over %d inserts + %d deletes on n=%d across %d cluster configs vs flat+kruskal, in %v\n",
		len(edges), len(live), n, len(cfgs), time.Since(start).Round(time.Millisecond))
}
