package main

import (
	"fmt"
	"sync"
	"time"

	"parmsf"
	"parmsf/internal/snapshot"
)

// dense-batch: the paper's parallel configuration. Options{Sparsify: true,
// Workers: 2}, n=128, a base graph of 16n random pairs loaded by Build,
// then a closed loop of one caller issuing synchronous DeleteEdges of 32
// random live edges and InsertEdges of 32 fresh edges, back to back, with
// a snapshot reader woken after each pair. It bypasses the ingest queue.
// One such forest holds about 0.2 GB of live heap at n=128, 0.6 GB at
// n=256 and 1 GB at n=512. At n=256 a 20 s run saw only about five
// garbage collections, each worth about 1.5% of its CPU time, so one more
// or less moved the CPU cost per update; n=128 sees about sixteen.
const (
	denseN      = 128
	denseWindow = 32
)

// denseInst is one dense-batch forest.
type denseInst struct {
	seed     uint64
	k        int
	g        *gen
	spec     forestSpec
	f        *parmsf.Forest
	setup    float64 // seconds in Build
	setupCPU float64 // process CPU seconds of the same
	final    answer

	// Traced runs only.
	wins        []window
	depth, work []float64 // PRAM Time and Work per call
	readAcqNs   []float64
	pub0        snapshot.Stats
}

func newDense(seed uint64, k int) (instance, error) {
	g := newGen(seed, k, uniformPairs(denseN))
	di := &denseInst{seed: seed, k: k, g: g,
		spec: forestSpec{n: denseN, opt: parmsf.Options{Sparsify: true, Workers: 2}, base: g.grow(16 * denseN)}}
	t0, c0 := time.Now(), cpuSeconds()
	f, err := buildPublic(di.spec)
	if err != nil {
		return nil, err
	}
	di.setup = time.Since(t0).Seconds()
	di.setupCPU = cpuSeconds() - c0
	di.f = f
	return di, nil
}

func (di *denseInst) close() {
	if di.f != nil {
		di.f.Close()
		di.f = nil
	}
}

func (di *denseInst) measure(d time.Duration, tr *tracer, r *report) *samples {
	f, g := di.f, di.g
	di.pub0 = f.PublishStats()
	start := time.Now()
	from := start.Add(warmup)
	end := from.Add(d)
	s := &samples{setupS: []float64{di.setupCPU}}
	tokens := make(chan struct{}, 1024)
	var rd *reads
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd = snapshotReader(f, stream(di.seed, di.k, streamReads), from, func(fn func()) { bursts(tokens, fn) })
	}()
	var m meter
	mach := f.PRAM()
	call := func(w window, req int64) time.Duration {
		t0, w0 := mach.Time, mach.Work
		st := time.Now()
		errs := newCall(w).apply(f)
		e := time.Now()
		s.attempted += int64(len(w.ops))
		if n := errCount(errs); n > 0 {
			s.failed += int64(n)
			fmt.Printf("dense-batch: window %d: %d updates failed: %v\n", req, n, firstErr(errs))
		}
		if tr != nil {
			name := "parmsf.InsertEdges"
			if w.del {
				name = "parmsf.DeleteEdges"
			}
			tr.add(name, st, e, -1, req)
			di.depth = append(di.depth, float64(mach.Time-t0))
			di.work = append(di.work, float64(mach.Work-w0))
			di.wins = append(di.wins, w)
		}
		return e.Sub(st)
	}
	for i := int64(0); time.Now().Before(end); i++ {
		dw := window{del: true}
		for j := 0; j < denseWindow; j++ {
			dw.ops = append(dw.ops, g.delete())
		}
		t0 := time.Now()
		if !t0.Before(from) {
			m.start()
		}
		dd := call(dw, 2*i)
		iw := window{}
		for j := 0; j < denseWindow; j++ {
			iw.ops = append(iw.ops, g.insert())
		}
		id := call(iw, 2*i+1)
		tokens <- struct{}{}
		if t0.Before(from) {
			continue
		}
		for j := 0; j < denseWindow; j++ {
			s.visMs = append(s.visMs, float64(dd)/1e6, float64(id)/1e6)
		}
		s.batchMs = append(s.batchMs, float64(dd+id)/1e6)
		s.ops += 2 * denseWindow
		s.elapsed = time.Since(from)
	}
	close(tokens)
	wg.Wait()
	m.stop(s)
	s.readUs, di.readAcqNs = rd.us, rd.acqNs
	s.attempted += rd.attempt
	di.final = forestAnswer(f)
	gate(r, "dense-batch", di.final, kruskal(denseN, g.live), s.failed)
	s.heapMB = []float64{heapMB()}
	return s
}

func (di *denseInst) traced(tr *tracer, r *report, cfg runCfg) error {
	r.set("parmsf.build_s", di.setup, 1)
	r.set("batch.sort_ms", sortMs(di.spec.base, di.spec.opt), 1)
	publishMetrics(r, di.pub0, di.f.PublishStats())
	r.set("snapshot.read_ns_p50", pct(di.readAcqNs, 50), len(di.readAcqNs))
	r.set("pram.depth_per_batch", mean(di.depth), len(di.depth))
	r.set("pram.work_per_batch", mean(di.work), len(di.work))
	if err := recoverMetric(r, di.f, di.g.fresh()); err != nil {
		return err
	}
	if err := checkAnswer(forestAnswer(di.f), di.final); err != nil {
		r.fail("dense-batch: recovered forest differs: %v", err)
	}
	di.close()
	rtr, err := replayChecks(r, "dense-batch", []forestSpec{di.spec}, di.final, single, func(c *composed) ([]window, error) {
		return di.wins, c.replay(di.wins)
	})
	if err != nil {
		return err
	}
	return writeSpans(cfg, "dense-batch", tr, rtr)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
