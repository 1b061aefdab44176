package main

import (
	"fmt"

	"parmsf"
	"parmsf/cluster"
	"parmsf/internal/xrand"
)

// checkCluster cross-validates the sharded cluster package: every edge of
// the list is inserted one at a time, then every live edge deleted in a
// seeded random order, through k in {2, 4} clusters under both the
// contiguous-range and the hash placement and a flat single-forest twin.
// After every operation each must agree with the Kruskal baseline on
// Weight, Size and Components (tie-break independent across minimum
// spanning forests, so bit-equality is required even with duplicate
// weights), with Connected sampled on a random pair every 7th operation.
func checkCluster(n int, edges []parmsf.Edge, seed uint64) (string, error) {
	if n < 16 {
		return "", fmt.Errorf("cluster check needs n >= 16 (got n=%d); 4-shard ranges would degenerate", n)
	}
	shard := parmsf.Options{MaxEdges: max(4*n, len(edges)+8)}
	flat := parmsf.MustNew(n, shard)
	subs := []named{{"flat", flat}}
	for _, k := range []int{2, 4} {
		subs = append(subs,
			named{fmt.Sprintf("k%d-ranges", k), cluster.MustNew(n, k, cluster.Options{Shard: shard})},
			named{fmt.Sprintf("k%d-hash", k), cluster.MustNew(n, k, cluster.Options{Shard: shard, Placement: cluster.Hash(k)})},
		)
	}
	defer closeAll(subs)
	ref := newKruskal(n)

	rng := xrand.New(seed)
	var live []op
	step := 0
	// commit applies o everywhere and checks agreement; an accepted insert
	// joins live.
	commit := func(o op) error {
		refErr, err := apply(ref, subs, o)
		if err == nil {
			var pairs [][2]int
			if step%7 == 0 {
				pairs = [][2]int{{rng.Intn(n), rng.Intn(n)}}
			}
			err = agree(ref, subs, pairs...)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if !o.del && refErr == nil {
			live = append(live, o)
		}
		step++
		return nil
	}
	for _, e := range edges {
		if err := commit(op{u: e.U, v: e.V, w: e.W}); err != nil {
			return "", err
		}
	}
	for _, i := range rng.Perm(len(live)) {
		if err := commit(op{u: live[i].u, v: live[i].v, del: true}); err != nil {
			return "", err
		}
	}
	if flat.Size() != 0 || flat.Weight() != 0 {
		return "", fmt.Errorf("final state not empty: size=%d weight=%d", flat.Size(), flat.Weight())
	}
	return fmt.Sprintf("cluster parity over %d inserts + %d deletes on n=%d across %d cluster configs vs flat+kruskal",
		len(edges), len(live), n, len(subs)-1), nil
}
