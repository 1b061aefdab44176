package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"parmsf"
	"parmsf/cluster"
	"parmsf/internal/snapshot"
)

// cluster-mixed: routing, the coordinator and composed-view recompose.
// cluster.New(4096, 2) with Ranges placement and default shard options, a
// base graph of 2n pairs (10% cross-shard) loaded by SubmitBatch+Flush,
// then a closed loop of one writer submitting 64-update SubmitBatch chunks
// (50/50 insert/delete, 10% cross-shard) and waiting on every future
// before the next chunk, with one reader of composed
// Connected+Weight+Components woken after each chunk. The writes
// invalidate the composed view the reads use.
const (
	clusterN      = 4096
	clusterShards = 2
	clusterChunk  = 64
	clusterCross  = 10 // percent of pairs that cross shards
	// ingestMaxBatch is the ingest queue's default engine-batch cap, which
	// the replay's window split mirrors.
	ingestMaxBatch = 512
)

// router mirrors the cluster's routing of global updates to its forests:
// shard-local dense ids under the placement, and first-touch boundary ids
// for cross-shard edges on the coordinator (forest index clusterShards).
type router struct {
	owner []int
	local []int
	verts [][]int // shard -> local id -> global vertex
	bid   map[int]int
	bvert []int // boundary id -> global vertex
}

func newRouter(n, k int, place cluster.Placement) *router {
	rt := &router{owner: make([]int, n), local: make([]int, n), verts: make([][]int, k), bid: map[int]int{}}
	for v := 0; v < n; v++ {
		s := place.Shard(v)
		rt.owner[v] = s
		rt.local[v] = len(rt.verts[s])
		rt.verts[s] = append(rt.verts[s], v)
	}
	return rt
}

func (rt *router) boundary(v int) int {
	id, ok := rt.bid[v]
	if !ok {
		id = len(rt.bvert)
		rt.bid[v] = id
		rt.bvert = append(rt.bvert, v)
	}
	return id
}

// windows routes ops in order and splits each forest's share into the
// same-kind runs, capped at the ingest batch limit, that its drainer
// applies as engine batches.
func (rt *router) windows(ops []op, load bool) []window {
	k := len(rt.verts)
	per := make([][]op, k+1)
	for _, o := range ops {
		if su, sv := rt.owner[o.U], rt.owner[o.V]; su == sv {
			per[su] = append(per[su], op{Del: o.Del, U: rt.local[o.U], V: rt.local[o.V], W: o.W})
			continue
		}
		per[k] = append(per[k], op{Del: o.Del, U: rt.boundary(o.U), V: rt.boundary(o.V), W: o.W})
	}
	var wins []window
	for t, seq := range per {
		for i := 0; i < len(seq); {
			j := i + 1
			for j < len(seq) && seq[j].Del == seq[i].Del && j-i < ingestMaxBatch {
				j++
			}
			wins = append(wins, window{forest: t, del: seq[i].Del, ops: seq[i:j], load: load})
			i = j
		}
	}
	return wins
}

// global maps the per-forest answers of a replay back to global vertex
// ids and composes them by Kruskal, as the cluster's composed view does.
func (rt *router) global(n int, answers []answer) answer {
	k := len(rt.verts)
	var es []parmsf.Edge
	for t, a := range answers {
		for _, e := range a.edges {
			if t < k {
				es = append(es, parmsf.Edge{U: rt.verts[t][e.U], V: rt.verts[t][e.V], W: e.W})
			} else {
				es = append(es, parmsf.Edge{U: rt.bvert[e.U], V: rt.bvert[e.V], W: e.W})
			}
		}
	}
	return kruskal(n, es)
}

func updates(ops []op) []parmsf.Update {
	ups := make([]parmsf.Update, len(ops))
	for i, o := range ops {
		ups[i] = o.update()
	}
	return ups
}

// waitAll waits on every future of one SubmitBatch and returns each
// update's resolution time and error. Futures of one forest resolve in
// submission order, so one waiter per forest stamps each resolution as it
// happens.
func waitAll(ps []*parmsf.Pending, target []int, forests int) ([]time.Time, []error) {
	at := make([]time.Time, len(ps))
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	for t := 0; t < forests; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range ps {
				if target[i] == t {
					<-p.Done()
					at[i] = time.Now()
					errs[i] = p.Err()
				}
			}
		}()
	}
	wg.Wait()
	return at, errs
}

// clusterInst is one cluster-mixed cluster.
type clusterInst struct {
	seed     uint64
	k        int
	place    cluster.Placement
	g        *gen
	base     []parmsf.Edge
	baseOps  []op
	c        *cluster.Cluster
	setup    float64 // seconds from New until the composed view covers the base
	setupCPU float64 // process CPU seconds of the same
	final    answer

	// Traced runs only.
	rt              *router
	wins            []window
	submitUs        []float64 // SubmitBatch call per update
	composeUs       []float64
	hits, seen      int
	shardOps        []int
	cross, measured int
	pub0            snapshot.Stats
	iops0, ibat0    uint64
}

func newClusterInst(seed uint64, k int) (instance, error) {
	place := cluster.Ranges(clusterN, clusterShards)
	g := newGen(seed, k, shardPairs(clusterN, clusterShards, clusterCross, place.Shard))
	ci := &clusterInst{seed: seed, k: k, place: place, g: g, base: g.grow(2 * clusterN)}
	for _, e := range ci.base {
		ci.baseOps = append(ci.baseOps, op{U: e.U, V: e.V, W: e.W})
	}
	t0, c0 := time.Now(), cpuSeconds()
	c, err := cluster.New(clusterN, clusterShards, cluster.Options{Placement: place})
	if err != nil {
		return nil, err
	}
	ci.c = c
	ps := c.SubmitBatch(updates(ci.baseOps))
	if err := c.Flush(); err != nil {
		c.Close()
		return nil, fmt.Errorf("base load: %w", err)
	}
	for i, p := range ps {
		if err := p.Err(); err != nil {
			c.Close()
			return nil, fmt.Errorf("base load update %d: %w", i, err)
		}
	}
	_ = c.Weight() // the set-up ends once the composed view covers the base
	ci.setup = time.Since(t0).Seconds()
	ci.setupCPU = cpuSeconds() - c0
	return ci, nil
}

func (ci *clusterInst) close() {
	if ci.c != nil {
		ci.c.Close()
		ci.c = nil
	}
}

// publishStats sums the publisher counters of the shards and the
// coordinator.
func (ci *clusterInst) publishStats() (t snapshot.Stats) {
	fs := []*parmsf.Forest{ci.c.Coordinator()}
	for s := 0; s < clusterShards; s++ {
		fs = append(fs, ci.c.Shard(s))
	}
	for _, f := range fs {
		st := f.PublishStats()
		t.Epochs += st.Epochs
		t.DeltaEpochs += st.DeltaEpochs
		t.Rebases += st.Rebases
		t.PublishNs += st.PublishNs
		t.DeltaNs += st.DeltaNs
	}
	return t
}

func (ci *clusterInst) measure(d time.Duration, tr *tracer, r *report) *samples {
	c, g := ci.c, ci.g
	ci.pub0 = ci.publishStats()
	ci.iops0, ci.ibat0, _ = c.IngestStats()
	start := time.Now()
	from := start.Add(warmup)
	end := from.Add(d)
	s := &samples{setupS: []float64{ci.setupCPU}}
	tokens := make(chan struct{}, 1024)
	var wg sync.WaitGroup
	rd := &reads{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := stream(ci.seed, ci.k, streamReads)
		var prev []uint64
		bursts(tokens, func() {
			a, b := rng.IntN(clusterN), rng.IntN(clusterN)
			t0 := time.Now()
			_ = c.Connected(a, b)
			t1 := time.Now()
			_ = c.Weight()
			_ = c.Components()
			t2 := time.Now()
			rd.attempt++
			if t0.Before(from) {
				return
			}
			rd.us = append(rd.us, float64(t2.Sub(t0))/1e3)
			if tr == nil {
				return
			}
			tr.add("cluster.read", t0, t2, -1, rd.attempt)
			ep := c.Epochs()
			ci.seen++
			if slices.Equal(ep, prev) {
				ci.hits++
			} else {
				ci.composeUs = append(ci.composeUs, float64(t1.Sub(t0))/1e3)
			}
			prev = ep
		})
	}()

	if tr != nil {
		ci.rt = newRouter(clusterN, clusterShards, ci.place)
		ci.wins = ci.rt.windows(ci.baseOps, true)
		ci.shardOps = make([]int, clusterShards)
	}
	var m meter
	target := make([]int, clusterChunk)
	for i := int64(0); time.Now().Before(end); i++ {
		ops := make([]op, clusterChunk)
		for j := range ops {
			ops[j] = g.mixed()
			if su, sv := ci.place.Shard(ops[j].U), ci.place.Shard(ops[j].V); su == sv {
				target[j] = su
			} else {
				target[j] = clusterShards
			}
		}
		t0 := time.Now()
		if !t0.Before(from) {
			m.start()
		}
		ps := c.SubmitBatch(updates(ops))
		t1 := time.Now()
		at, errs := waitAll(ps, target, clusterShards+1)
		t2 := time.Now()
		tokens <- struct{}{}
		s.attempted += clusterChunk
		if n := errCount(errs); n > 0 {
			s.failed += int64(n)
			fmt.Printf("cluster-mixed: chunk %d: %d updates failed: %v\n", i, n, firstErr(errs))
		}
		if tr != nil {
			tr.add("cluster.SubmitBatch", t0, t1, -1, i)
			tr.add("cluster.chunk", t0, t2, -1, i)
			ci.wins = append(ci.wins, ci.rt.windows(ops, false)...)
		}
		if t0.Before(from) {
			continue
		}
		for j := range ops {
			s.visMs = append(s.visMs, float64(at[j].Sub(t0))/1e6)
		}
		s.batchMs = append(s.batchMs, float64(t2.Sub(t0))/1e6)
		s.ops += clusterChunk
		s.elapsed = time.Since(from)
		if tr != nil {
			ci.submitUs = append(ci.submitUs, float64(t1.Sub(t0))/1e3/clusterChunk)
			for j := range ops {
				if target[j] == clusterShards {
					ci.cross++
				} else {
					ci.shardOps[target[j]]++
				}
			}
			ci.measured += clusterChunk
		}
	}
	close(tokens)
	wg.Wait()
	m.stop(s)
	s.readUs = rd.us
	s.attempted += rd.attempt
	ci.final = clusterAnswer(c)
	gate(r, "cluster-mixed", ci.final, kruskal(clusterN, g.live), s.failed)
	s.heapMB = []float64{heapMB()}
	return s
}

func (ci *clusterInst) traced(tr *tracer, r *report, cfg runCfg) error {
	c := ci.c
	r.set("parmsf.build_s", ci.setup, 1)
	r.set("batch.sort_ms", sortMs(ci.base, parmsf.Options{}), 1)
	r.set("ingest.submit_us_p50", pct(ci.submitUs, 50), len(ci.submitUs))
	iops, ibat, _ := c.IngestStats()
	r.set("ingest.ops_per_batch", float64(iops-ci.iops0)/float64(ibat-ci.ibat0), int(ibat-ci.ibat0))
	publishMetrics(r, ci.pub0, ci.publishStats())
	r.set("cluster.compose_us_p50", pct(ci.composeUs, 50), len(ci.composeUs))
	r.set("cluster.view_hit_ratio", float64(ci.hits)/float64(ci.seen), ci.seen)
	r.set("cluster.cross_share", float64(ci.cross)/float64(ci.measured), ci.measured)
	maxOps, sum := 0, 0
	for _, n := range ci.shardOps {
		maxOps = max(maxOps, n)
		sum += n
	}
	r.set("cluster.shard_ops_skew", float64(maxOps)*clusterShards/float64(sum), sum)

	// Recovery of shard 0: under Ranges placement its local ids are the
	// global ids 0..n/k-1.
	var e parmsf.Edge
	for {
		e = ci.g.fresh()
		if ci.place.Shard(e.U) == 0 && ci.place.Shard(e.V) == 0 {
			break
		}
	}
	if err := recoverMetric(r, c.Shard(0), e); err != nil {
		return err
	}
	if err := checkAnswer(clusterAnswer(c), ci.final); err != nil {
		r.fail("cluster-mixed: recovered cluster differs: %v", err)
	}
	ci.close()

	specs := make([]forestSpec, 0, clusterShards+1)
	for s := 0; s < clusterShards; s++ {
		specs = append(specs, forestSpec{n: max(2, len(ci.rt.verts[s]))})
	}
	specs = append(specs, forestSpec{n: clusterN})
	toGlobal := func(as []answer) answer { return ci.rt.global(clusterN, as) }
	rtr, err := replayChecks(r, "cluster-mixed", specs, ci.final, toGlobal, func(c *composed) ([]window, error) {
		return ci.wins, c.replay(ci.wins)
	})
	if err != nil {
		return err
	}
	return writeSpans(cfg, "cluster-mixed", tr, rtr)
}
