package cluster_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"parmsf"
	"parmsf/cluster"
)

// streamOp is one scripted update of a deterministic test stream.
type streamOp struct {
	del  bool
	u, v int
	w    int64
}

// stream scripts a deterministic churn stream over n vertices: inserts of
// fresh unique-weight edges mixed with deletes of currently-live edges
// (~40%), so replaying it through any correct structure succeeds op for
// op. Unique weights make the MSF itself unique, not just its weight.
func stream(n, steps int, seed int64) []streamOp {
	rng := rand.New(rand.NewSource(seed))
	live := map[[2]int]int64{}
	var keys [][2]int
	var ops []streamOp
	w := int64(parmsf.MinWeight) + 1
	for len(ops) < steps {
		if len(keys) > 0 && rng.Intn(100) < 40 {
			j := rng.Intn(len(keys))
			k := keys[j]
			ops = append(ops, streamOp{del: true, u: k[0], v: k[1]})
			delete(live, k)
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			continue
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if _, ok := live[[2]int{u, v}]; ok {
			continue
		}
		live[[2]int{u, v}] = w
		keys = append(keys, [2]int{u, v})
		ops = append(ops, streamOp{u: u, v: v, w: w})
		w++
	}
	return ops
}

// kruskal computes the reference MSF weight and size of the live edge set.
func kruskal(n int, live map[[2]int]int64) (weight int64, size int) {
	type e struct {
		u, v int
		w    int64
	}
	edges := make([]e, 0, len(live))
	for k, w := range live {
		edges = append(edges, e{k[0], k[1], w})
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.w != b.w {
			return a.w < b.w
		}
		if a.u != b.u {
			return a.u < b.u
		}
		return a.v < b.v
	})
	par := make([]int, n)
	for i := range par {
		par[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for par[x] != x {
			par[x] = par[par[x]]
			x = par[x]
		}
		return x
	}
	for _, ed := range edges {
		ru, rv := find(ed.u), find(ed.v)
		if ru != rv {
			par[rv] = ru
			weight += ed.w
			size++
		}
	}
	return weight, size
}

// checkParity asserts the cluster's composed global answers are
// bit-identical to the flat twin's at a quiescent point.
func checkParity(t *testing.T, c *cluster.Cluster, flat *parmsf.Forest, n int, rng *rand.Rand) {
	t.Helper()
	if got, want := c.Weight(), flat.Weight(); got != want {
		t.Fatalf("Weight: cluster %d, flat %d", got, want)
	}
	if got, want := c.Size(), flat.Size(); got != want {
		t.Fatalf("Size: cluster %d, flat %d", got, want)
	}
	if got, want := c.Components(), flat.Components(); got != want {
		t.Fatalf("Components: cluster %d, flat %d", got, want)
	}
	for s := 0; s < 8; s++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if got, want := c.Connected(u, v), flat.Connected(u, v); got != want {
			t.Fatalf("Connected(%d,%d): cluster %v, flat %v", u, v, got, want)
		}
	}
}

// sameErr asserts two per-op results agree (both nil or both the same
// public sentinel).
func sameErr(t *testing.T, ce, fe error, o streamOp) {
	t.Helper()
	if (ce == nil) != (fe == nil) || (fe != nil && !errors.Is(ce, fe)) {
		t.Fatalf("op %+v: cluster err %v, flat err %v", o, ce, fe)
	}
}

// TestClusterFlatParity drives one deterministic stream through a k-shard
// cluster and a flat single-forest twin via the synchronous API, checking
// bit-identical global answers after every op and Kruskal agreement at
// checkpoints — for k in {1,2,4} and default/sparsify shard configs.
func TestClusterFlatParity(t *testing.T) {
	const n, steps = 64, 320
	for _, k := range []int{1, 2, 4} {
		for _, cfg := range []string{"default", "sparsify"} {
			t.Run(fmt.Sprintf("k=%d/%s", k, cfg), func(t *testing.T) {
				shardOpt := parmsf.Options{Sparsify: cfg == "sparsify"}
				c := cluster.MustNew(n, k, cluster.Options{Shard: shardOpt})
				defer c.Close()
				flat := parmsf.MustNew(n, parmsf.Options{})
				defer flat.Close()
				rng := rand.New(rand.NewSource(7))
				live := map[[2]int]int64{}
				for i, o := range stream(n, steps, 42) {
					var ce, fe error
					if o.del {
						ce, fe = c.Delete(o.u, o.v), flat.Delete(o.u, o.v)
						delete(live, [2]int{o.u, o.v})
					} else {
						ce, fe = c.Insert(o.u, o.v, o.w), flat.Insert(o.u, o.v, o.w)
						live[[2]int{o.u, o.v}] = o.w
					}
					sameErr(t, ce, fe, o)
					checkParity(t, c, flat, n, rng)
					if i%64 == 0 {
						kw, ks := kruskal(n, live)
						if c.Weight() != kw || c.Size() != ks {
							t.Fatalf("op %d: cluster weight/size %d/%d, Kruskal %d/%d",
								i, c.Weight(), c.Size(), kw, ks)
						}
					}
				}
				kw, ks := kruskal(n, live)
				if c.Weight() != kw || c.Size() != ks {
					t.Fatalf("final: cluster weight/size %d/%d, Kruskal %d/%d",
						c.Weight(), c.Size(), kw, ks)
				}
			})
		}
	}
}

// TestClusterSubmitParity drives chunked SubmitBatch streams through the
// cluster (with the cancelling coalescer on) and the flat twin's own
// ingest queue, comparing composed answers at every quiescent (flushed)
// point. Cancelled pairs must leave state and per-op results unchanged.
func TestClusterSubmitParity(t *testing.T) {
	const n, steps, chunk = 96, 480, 37
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c := cluster.MustNew(n, k, cluster.Options{
				Shard: parmsf.Options{CoalesceCancel: true, MaxBatch: 16},
			})
			defer c.Close()
			flat := parmsf.MustNew(n, parmsf.Options{})
			defer flat.Close()
			rng := rand.New(rand.NewSource(11))
			ops := stream(n, steps, 99)
			live := map[[2]int]int64{}
			for start := 0; start < len(ops); start += chunk {
				end := start + chunk
				if end > len(ops) {
					end = len(ops)
				}
				ups := make([]parmsf.Update, 0, end-start)
				for _, o := range ops[start:end] {
					ups = append(ups, parmsf.Update{Delete: o.del, U: o.u, V: o.v, W: o.w})
					if o.del {
						delete(live, [2]int{o.u, o.v})
					} else {
						live[[2]int{o.u, o.v}] = o.w
					}
				}
				cp := c.SubmitBatch(ups)
				fp := flat.SubmitBatch(ups)
				for i := range ups {
					sameErr(t, cp[i].Wait(), fp[i].Wait(), ops[start+i])
				}
				if err := c.Flush(); err != nil {
					t.Fatalf("cluster flush: %v", err)
				}
				if err := flat.Flush(); err != nil {
					t.Fatalf("flat flush: %v", err)
				}
				checkParity(t, c, flat, n, rng)
				kw, ks := kruskal(n, live)
				if c.Weight() != kw || c.Size() != ks {
					t.Fatalf("chunk @%d: cluster weight/size %d/%d, Kruskal %d/%d",
						start, c.Weight(), c.Size(), kw, ks)
				}
			}
			ops2, _, cancelled := c.IngestStats()
			if ops2+cancelled == 0 {
				t.Fatal("ingest counters never moved")
			}
		})
	}
}

// TestClusterPlacements runs the parity stream under the Hash and ByMap
// policies (k=4), where most edges are cross-shard, exercising the
// boundary registry and coordinator routing.
func TestClusterPlacements(t *testing.T) {
	const n, steps = 48, 240
	owner := make([]int, n)
	for v := range owner {
		owner[v] = (v * 3) % 4
	}
	for _, tc := range []struct {
		name  string
		place cluster.Placement
	}{
		{"hash", cluster.Hash(4)},
		{"bymap", cluster.ByMap(owner)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.MustNew(n, 4, cluster.Options{Placement: tc.place})
			defer c.Close()
			flat := parmsf.MustNew(n, parmsf.Options{})
			defer flat.Close()
			rng := rand.New(rand.NewSource(3))
			for _, o := range stream(n, steps, 17) {
				if o.del {
					sameErr(t, c.Delete(o.u, o.v), flat.Delete(o.u, o.v), o)
				} else {
					sameErr(t, c.Insert(o.u, o.v, o.w), flat.Insert(o.u, o.v, o.w), o)
				}
				checkParity(t, c, flat, n, rng)
			}
		})
	}
}

// TestClusterValidation covers construction and routing edge cases: bad
// shard counts, out-of-range placements, invalid edges, unregistered
// cross-shard deletes, and the MaxBoundary capacity cap.
func TestClusterValidation(t *testing.T) {
	if _, err := cluster.New(1, 2, cluster.Options{}); !errors.Is(err, parmsf.ErrTooFewVertices) {
		t.Fatalf("n=1: %v", err)
	}
	if _, err := cluster.New(8, 0, cluster.Options{}); !errors.Is(err, cluster.ErrShards) {
		t.Fatalf("k=0: %v", err)
	}
	bad := make([]int, 8)
	bad[3] = 9
	if _, err := cluster.New(8, 2, cluster.Options{Placement: cluster.ByMap(bad)}); !errors.Is(err, cluster.ErrPlacement) {
		t.Fatalf("bad placement: %v", err)
	}

	c := cluster.MustNew(8, 2, cluster.Options{MaxBoundary: 2})
	defer c.Close()
	if err := c.Insert(0, 0, parmsf.MinWeight+1); !errors.Is(err, parmsf.ErrBadEdge) {
		t.Fatalf("self loop: %v", err)
	}
	if err := c.Insert(-1, 2, parmsf.MinWeight+1); !errors.Is(err, parmsf.ErrBadEdge) {
		t.Fatalf("out of range: %v", err)
	}
	if err := c.Delete(0, 4); !errors.Is(err, parmsf.ErrNotFound) {
		t.Fatalf("unregistered cross delete: %v", err)
	}
	// Ranges(8,2): shard 0 owns 0..3, shard 1 owns 4..7. Two boundary slots
	// admit one cross pair; a third distinct endpoint exceeds MaxBoundary.
	// A cross insert rejected for its weight registers no boundary id, so
	// these leave both slots free.
	for _, w := range []parmsf.Weight{parmsf.MinWeight - 1, math.MaxInt64} {
		if err := c.Insert(1, 5, w); !errors.Is(err, parmsf.ErrBadEdge) {
			t.Fatalf("cross insert of weight %d: %v", w, err)
		}
		if err := c.Submit(parmsf.Update{U: 2, V: 6, W: w}).Wait(); !errors.Is(err, parmsf.ErrBadEdge) {
			t.Fatalf("cross submit of weight %d: %v", w, err)
		}
	}
	if err := c.Insert(0, 4, parmsf.MinWeight+2); err != nil {
		t.Fatalf("first cross insert: %v", err)
	}
	if err := c.Insert(1, 5, parmsf.MinWeight+3); !errors.Is(err, parmsf.ErrCapacity) {
		t.Fatalf("boundary overflow: %v", err)
	}
	if !c.Connected(0, 4) || c.Connected(1, 5) {
		t.Fatal("connectivity after boundary overflow is wrong")
	}
	if p := c.Submit(parmsf.Update{U: 0, V: 0, W: parmsf.MinWeight + 1}); !errors.Is(p.Wait(), parmsf.ErrBadEdge) {
		t.Fatal("submit self loop not rejected")
	}
	if p := c.Submit(parmsf.Update{Delete: true, U: 2, V: 6}); !errors.Is(p.Wait(), parmsf.ErrNotFound) {
		t.Fatal("submit unregistered cross delete not rejected")
	}
}

// TestClusterEpochVector checks that Epochs is per-shard monotone and that
// an idle shard's epoch holds while others advance.
func TestClusterEpochVector(t *testing.T) {
	c := cluster.MustNew(16, 4, cluster.Options{})
	defer c.Close()
	e0 := c.Epochs()
	if len(e0) != 5 {
		t.Fatalf("epoch vector length %d, want 5 (4 shards + coordinator)", len(e0))
	}
	// Ranges(16,4): shard 1 owns 4..7. Touch only shard 1.
	if err := c.Insert(4, 5, parmsf.MinWeight+1); err != nil {
		t.Fatal(err)
	}
	e1 := c.Epochs()
	if e1[1] <= e0[1] {
		t.Fatalf("shard 1 epoch did not advance: %v -> %v", e0, e1)
	}
	for _, i := range []int{0, 2, 3, 4} {
		if e1[i] != e0[i] {
			t.Fatalf("untouched forest %d epoch moved: %v -> %v", i, e0, e1)
		}
	}
}

// TestClusterConcurrentReadWrite hammers the composed read path (view
// cache, TryLock stale fallback, boundary table) from reader goroutines
// while per-shard writers churn their own vertex intervals and one writer
// churns cross-shard edges — the -race witness for the lock-free read
// claim.
func TestClusterConcurrentReadWrite(t *testing.T) {
	const n, k = 128, 4
	c := cluster.MustNew(n, k, cluster.Options{
		Shard: parmsf.Options{CoalesceCancel: true, QueueDepth: 256},
	})
	defer c.Close()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Connected(r, n-1-r)
				_ = c.Weight()
				_ = c.Components()
				_ = c.Epochs()
			}
		}(r)
	}
	var writers sync.WaitGroup
	span := n / k
	for s := 0; s < k; s++ {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			base := s * span
			w := int64(parmsf.MinWeight) + 1 + int64(s)*10_000
			for i := 0; i < 200; i++ {
				u := base + i%(span-1)
				v := base + (i+1)%span
				if u == v {
					continue
				}
				if err := c.Submit(parmsf.Update{U: u, V: v, W: w}).Wait(); err != nil && !errors.Is(err, parmsf.ErrExists) {
					t.Errorf("shard %d insert: %v", s, err)
					return
				}
				if err := c.Submit(parmsf.Update{Delete: true, U: u, V: v}).Wait(); err != nil && !errors.Is(err, parmsf.ErrNotFound) {
					t.Errorf("shard %d delete: %v", s, err)
					return
				}
				w++
			}
		}(s)
	}
	writers.Add(1)
	go func() { // cross-shard churn through the coordinator
		defer writers.Done()
		w := int64(parmsf.MinWeight) + 900_000
		for i := 0; i < 150; i++ {
			u, v := i%span, span+(i%span)
			if err := c.Submit(parmsf.Update{U: u, V: v, W: w}).Wait(); err != nil && !errors.Is(err, parmsf.ErrExists) {
				t.Errorf("cross insert: %v", err)
				return
			}
			if err := c.Submit(parmsf.Update{Delete: true, U: u, V: v}).Wait(); err != nil && !errors.Is(err, parmsf.ErrNotFound) {
				t.Errorf("cross delete: %v", err)
				return
			}
			w++
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Size(); got != 0 {
		t.Fatalf("all edges were churned away, Size = %d", got)
	}
}
