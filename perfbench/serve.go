package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"parmsf"
	"parmsf/internal/ingest"
	"parmsf/internal/snapshot"
)

// serve-sparse: the per-update serving path. Default Options (sequential
// engine, no sparsification, no worker pool), n=4096, a base graph of 2n
// random pairs loaded by Build, then an open loop of single Submits with
// Poisson arrivals, 50/50 delete-a-live-edge / insert-a-fresh-pair, and
// one paced snapshot reader.
const (
	serveN = 4096
	// serveRate is the offered load in Submits/s: about a fifth of the
	// synchronous single-update capacity of this configuration, measured
	// at about 970 updates/s on a 2-vCPU Xeon VM. At a third of it,
	// queueing made the tail latency spread too widely between runs.
	serveRate = 200.0
)

// arrival is one submitted update on its way to the stamper.
type arrival struct {
	id  int
	due time.Time
	p   *parmsf.Pending
}

// scheduled is one arrival of the open loop: its offset from the start
// and its update (kept by traced runs for the replay).
type scheduled struct {
	off time.Duration
	op  op
}

// served is what the open loop measured after the warmup.
type served struct {
	visMs      []float64 // due -> Pending resolved
	subUs      []float64 // inside Submit
	lagMs      []float64 // Submit start - due
	attempted  int64
	failed     int64
	first      time.Time // start of the measured period
	lastDone   time.Time // last measured resolution
	measuredOp int
	sched      []scheduled // every arrival, kept by traced runs
	reads      *reads
	cost       samples // CPU time and allocations of the measured period
}

// serveLoop runs the open loop for warmup+d: arrivals from arr, reads
// from readRng.
func serveLoop(f *parmsf.Forest, g *gen, arr, readRng *rand.Rand, d time.Duration, tr *tracer) *served {
	total := (warmup + d).Seconds()
	start := time.Now()
	res := &served{first: start.Add(warmup)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.reads = snapshotReader(f, readRng, res.first, func(fn func()) {
			paced(readRate/readBurst, stop, func() {
				for i := 0; i < readBurst; i++ {
					fn()
				}
			})
		})
	}()
	// Larger than the ingest queue can hold in flight (QueueDepth 1024 plus
	// one drained batch of 512), so the generator never waits on the stamper.
	pend := make(chan arrival, 4096)
	stamped := make(chan struct{})
	go func() {
		defer close(stamped)
		for a := range pend {
			<-a.p.Done()
			now := time.Now()
			if err := a.p.Err(); err != nil {
				res.failed++
				fmt.Printf("serve-sparse: update %d failed: %v\n", a.id, err)
			}
			tr.add("parmsf.visible", a.due, now, -1, int64(a.id))
			if !a.due.Before(res.first) {
				res.visMs = append(res.visMs, float64(now.Sub(a.due))/1e6)
				res.lastDone = now
				res.measuredOp++
			}
		}
	}()
	var m meter
	t := 0.0
	for i := 0; ; i++ {
		t += arr.ExpFloat64() / serveRate
		if t >= total {
			break
		}
		off := time.Duration(t * 1e9)
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !due.Before(res.first) {
			m.start()
		}
		o := g.mixed()
		sub := time.Now()
		p := f.Submit(o.update())
		subEnd := time.Now()
		res.attempted++
		pend <- arrival{id: i, due: due, p: p}
		if !due.Before(res.first) {
			res.subUs = append(res.subUs, float64(subEnd.Sub(sub))/1e3)
			res.lagMs = append(res.lagMs, float64(sub.Sub(due))/1e6)
		}
		if tr != nil {
			res.sched = append(res.sched, scheduled{off: off, op: o})
			tr.add("parmsf.Submit", sub, subEnd, -1, int64(i))
		}
	}
	close(pend)
	<-stamped
	close(stop)
	wg.Wait()
	m.stop(&res.cost)
	res.attempted += res.reads.attempt
	return res
}

// serveInst is one serve-sparse forest.
type serveInst struct {
	seed     uint64
	k        int
	g        *gen
	spec     forestSpec
	f        *parmsf.Forest
	setup    float64 // seconds in Build
	setupCPU float64 // process CPU seconds of the same
	run      *served
	final    answer

	pub0         snapshot.Stats
	iops0, ibat0 uint64
}

func newServe(seed uint64, k int) (instance, error) {
	g := newGen(seed, k, uniformPairs(serveN))
	si := &serveInst{seed: seed, k: k, g: g, spec: forestSpec{n: serveN, base: g.grow(2 * serveN)}}
	t0, c0 := time.Now(), cpuSeconds()
	f, err := buildPublic(si.spec)
	if err != nil {
		return nil, err
	}
	si.setup = time.Since(t0).Seconds()
	si.setupCPU = cpuSeconds() - c0
	si.f = f
	return si, nil
}

func (si *serveInst) close() {
	if si.f != nil {
		si.f.Close()
		si.f = nil
	}
}

func (si *serveInst) measure(d time.Duration, tr *tracer, r *report) *samples {
	si.pub0 = si.f.PublishStats()
	si.iops0, si.ibat0 = si.f.IngestStats()
	run := serveLoop(si.f, si.g, stream(si.seed, si.k, streamArrivals), stream(si.seed, si.k, streamReads), d, tr)
	si.run = run
	if err := si.f.Flush(); err != nil {
		r.fail("serve-sparse: flush: %v", err)
	}
	si.final = forestAnswer(si.f)
	gate(r, "serve-sparse", si.final, kruskal(serveN, si.g.live), run.failed)
	return &samples{
		setupS:  []float64{si.setupCPU},
		heapMB:  []float64{heapMB()},
		visMs:   run.visMs,
		batchMs: run.visMs, // the caller's write unit is one Submit
		readUs:  run.reads.us,
		ops:     run.measuredOp,
		elapsed: run.lastDone.Sub(run.first),
		cpuS:    run.cost.cpuS,
		allocs:  run.cost.allocs,

		attempted: run.attempted,
		failed:    run.failed,
	}
}

func (si *serveInst) traced(tr *tracer, r *report, cfg runCfg) error {
	run, f := si.run, si.f
	r.set("parmsf.build_s", si.setup, 1)
	r.set("batch.sort_ms", sortMs(si.spec.base, si.spec.opt), 1)
	r.set("ingest.submit_us_p50", pct(run.subUs, 50), len(run.subUs))
	iops, ibat := f.IngestStats()
	r.set("ingest.ops_per_batch", float64(iops-si.iops0)/float64(ibat-si.ibat0), int(ibat-si.ibat0))
	publishMetrics(r, si.pub0, f.PublishStats())
	r.set("snapshot.read_ns_p50", pct(run.reads.acqNs, 50), len(run.reads.acqNs))
	r.set("workload.gen_lag_p99_ms", pct(run.lagMs, 99), len(run.lagMs))
	if err := recoverMetric(r, f, si.g.fresh()); err != nil {
		return err
	}
	if err := checkAnswer(forestAnswer(f), si.final); err != nil {
		r.fail("serve-sparse: recovered forest differs: %v", err)
	}
	si.close()
	rtr, err := replayChecks(r, "serve-sparse", []forestSpec{si.spec}, si.final, single, func(c *composed) ([]window, error) {
		wins, waits, err := ingestReplay(c, run.sched)
		r.set("ingest.queue_wait_ms_p99", pct(waits, 99), len(waits))
		return wins, err
	})
	if err != nil {
		return err
	}
	return writeSpans(cfg, "serve-sparse", tr, rtr)
}

// ingestReplay drives the recorded arrivals, at their recorded offsets,
// through an ingest queue feeding the composed stack, and returns the
// engine windows the drainer formed and every post-warmup op's queue wait
// (Submit to the drainer handing its window to the commit path), in ms.
func ingestReplay(c *composed, sched []scheduled) ([]window, []float64, error) {
	a := &stackApplier{c: c, sub: make([]time.Time, len(sched))}
	c.before = c.counters()
	q := ingest.NewWithConfig(a, ingest.Config{})
	start := time.Now()
	a.from = start.Add(warmup)
	futs := make([]*ingest.Future, len(sched))
	for i, s := range sched {
		if d := time.Until(start.Add(s.off)); d > 0 {
			time.Sleep(d)
		}
		a.sub[i] = time.Now()
		futs[i] = q.Submit(ingest.Op{Delete: s.op.Del, U: s.op.U, V: s.op.V, W: s.op.W})
	}
	q.Close()
	c.after = c.counters()
	for i, p := range futs {
		if err := p.Wait(); err != nil {
			return nil, nil, fmt.Errorf("composed replay op %d: %w", i, err)
		}
	}
	return a.wins, a.waits, nil
}

// stackApplier is the ingest drainer's sink in the serve replay: the
// composed stack's commit path, plus the queue-wait clock.
type stackApplier struct {
	c     *composed
	sub   []time.Time // Submit time by submission order; written before each Submit
	next  int
	from  time.Time
	waits []float64
	wins  []window
}

func (a *stackApplier) ApplyInserts(ops []ingest.Op) []error { return a.apply(false, ops) }
func (a *stackApplier) ApplyDeletes(ops []ingest.Op) []error { return a.apply(true, ops) }

func (a *stackApplier) apply(del bool, ops []ingest.Op) []error {
	now := time.Now()
	w := window{del: del}
	for _, o := range ops {
		if s := a.sub[a.next]; !s.Before(a.from) {
			a.waits = append(a.waits, float64(now.Sub(s))/1e6)
		}
		a.next++
		w.ops = append(w.ops, op{Del: o.Delete, U: o.U, V: o.V, W: o.W})
	}
	st, err := a.c.stacks[0].apply(w, int64(len(a.wins)))
	a.c.record(st)
	a.wins = append(a.wins, w)
	if err != nil {
		errs := make([]error, len(ops))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	return nil
}
