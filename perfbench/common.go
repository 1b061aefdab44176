package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"syscall"
	"time"

	"parmsf"
	"parmsf/internal/snapshot"
)

// warmup is run before every measured phase and not counted: the ingest
// drainer, worker pools and snapshot pools reach steady state in it.
const warmup = 500 * time.Millisecond

// instances is how many fresh forests (or clusters) an untraced run sets
// up and measures, each for an equal share of --seconds, pooling their
// samples. Consecutive instances in one process differ by about 5% in
// throughput (memory layout, hash seeds, base graph), as much as repeated
// runs of one seed; pooling four averages that out.
const instances = 4

// samples is what instances measured, pooled.
type samples struct {
	setupS    []float64 // CPU seconds of one set-up per instance
	heapMB    []float64 // one reading per instance, forest still live
	visMs     []float64 // per update
	batchMs   []float64 // per write unit
	readUs    []float64 // per read
	ops       int       // measured updates
	elapsed   time.Duration
	cpuS      float64 // process CPU seconds over the measured period
	allocs    uint64  // heap allocations over the measured period
	attempted int64
	failed    int64
}

func (s *samples) add(o *samples) {
	s.setupS = append(s.setupS, o.setupS...)
	s.heapMB = append(s.heapMB, o.heapMB...)
	s.visMs = append(s.visMs, o.visMs...)
	s.batchMs = append(s.batchMs, o.batchMs...)
	s.readUs = append(s.readUs, o.readUs...)
	s.ops += o.ops
	s.elapsed += o.elapsed
	s.cpuS += o.cpuS
	s.allocs += o.allocs
	s.attempted += o.attempted
	s.failed += o.failed
}

// instance is one fresh forest or cluster of a workload, set up from
// (seed, k) and measured for one share of a run. measure ends with the
// correctness gate; a traced run continues from the measured instance.
type instance interface {
	measure(d time.Duration, tr *tracer, r *report) *samples
	traced(tr *tracer, r *report, cfg runCfg) error
	close()
}

// runWorkload runs an untraced run as instances pooled instances, or a
// traced run as instance 0 alone, followed by its replays.
func runWorkload(cfg runCfg, r *report, setup func(seed uint64, k int) (instance, error)) error {
	d := time.Duration(cfg.seconds / instances * 1e9)
	if cfg.trace {
		in, err := setup(cfg.seed, 0)
		if err != nil {
			return err
		}
		defer in.close()
		tr := newTracer()
		s := in.measure(d, tr, r)
		r.res.Attempted += s.attempted
		r.res.Failed += s.failed
		return in.traced(tr, r, cfg)
	}
	var all samples
	for k := 0; k < instances; k++ {
		in, err := setup(cfg.seed, k)
		if err != nil {
			return err
		}
		s := in.measure(d, nil, r)
		in.close()
		runtime.GC() // the next set-up does not pay for this instance's heap
		var line strings.Builder
		for _, m := range s.endToEnd() {
			fmt.Fprintf(&line, " %s=%.6g", m.name, m.value)
		}
		note("instance %d:%s", k, line.String())
		all.add(s)
	}
	r.res.Attempted += all.attempted
	r.res.Failed += all.failed
	for _, m := range all.endToEnd() {
		r.set(m.name, m.value, m.n)
	}
	return nil
}

// measured is one metric value with its sample count.
type measured struct {
	name  string
	value float64
	n     int
}

// endToEnd computes the end-to-end metrics of s.
func (s *samples) endToEnd() []measured {
	return []measured{
		{"setup_s", pct(s.setupS, 50), len(s.setupS)},
		{"update_cpu_us", s.cpuS * 1e6 / float64(s.ops), s.ops},
		{"allocs_per_update", float64(s.allocs) / float64(s.ops), s.ops},
		{"write_ops_per_s", float64(s.ops) / s.elapsed.Seconds(), s.ops},
		{"visible_p50_ms", pct(s.visMs, 50), len(s.visMs)},
		{"visible_p99_ms", pct(s.visMs, 99), len(s.visMs)},
		{"batch_p50_ms", pct(s.batchMs, 50), len(s.batchMs)},
		{"batch_p90_ms", pct(s.batchMs, 90), len(s.batchMs)},
		{"read_p50_us", pct(s.readUs, 50), len(s.readUs)},
		{"read_p99_us", pct(s.readUs, 99), len(s.readUs)},
		{"heap_mb", pct(s.heapMB, 50), len(s.heapMB)},
	}
}

// gate marks the run incorrect when any update failed or the final answer
// differs from the Kruskal reference.
func gate(r *report, name string, got, want answer, failed int64) {
	if failed > 0 {
		r.res.Correct = false
	}
	if err := checkAnswer(got, want); err != nil {
		r.fail("%s: final forest differs from Kruskal: %v", name, err)
	}
}

// readBurst is how many back-to-back reads every reader issues at a time:
// the open loop's reader on a timer, a closed loop's after each write
// unit, so its reads per update stay fixed however fast the host runs.
// Most reads of a burst find the processor awake and its caches warm,
// whether the host is idle or busy.
const readBurst = 16

// readRate is the pace of the open loop's reader, in reads/s.
const readRate = 512

// paced calls fn at rate calls per second until stop is closed.
func paced(rate float64, stop <-chan struct{}, fn func()) {
	start := time.Now()
	for i := 0; ; i++ {
		if d := time.Until(start.Add(time.Duration(float64(i) / rate * 1e9))); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return
		default:
		}
		fn()
	}
}

// bursts calls fn readBurst times for every token until tokens is closed
// and drained.
func bursts(tokens <-chan struct{}, fn func()) {
	for range tokens {
		for i := 0; i < readBurst; i++ {
			fn()
		}
	}
}

// reads is what a reader measured after the warmup.
type reads struct {
	us      []float64 // whole read, µs
	acqNs   []float64 // snapshot acquisition alone, ns
	attempt int64
}

// snapshotReader issues Snapshot+Connected+ComponentOf+Components+Release
// on f whenever drive calls it, timing reads that start at or after from.
func snapshotReader(f *parmsf.Forest, rng *rand.Rand, from time.Time, drive func(func())) *reads {
	n := f.N()
	rd := &reads{}
	drive(func() {
		a, b := rng.IntN(n), rng.IntN(n)
		t0 := time.Now()
		s := f.Snapshot()
		t1 := time.Now()
		_ = s.Connected(a, b)
		_ = s.ComponentOf(a)
		_ = s.Components()
		s.Release()
		t2 := time.Now()
		rd.attempt++
		if !t0.Before(from) {
			rd.us = append(rd.us, float64(t2.Sub(t0))/1e3)
			rd.acqNs = append(rd.acqNs, float64(t1.Sub(t0)))
		}
	})
	return rd
}

// meter reads the process's CPU time and allocation count at the start of
// a measured period.
type meter struct {
	cpuS   float64
	allocs uint64
	on     bool
}

func (m *meter) start() {
	if !m.on {
		*m = meter{cpuS: cpuSeconds(), allocs: mallocs(), on: true}
	}
}

// stop adds the CPU time and allocations since start to s.
func (m *meter) stop(s *samples) {
	if m.on {
		s.cpuS += cpuSeconds() - m.cpuS
		s.allocs += mallocs() - m.allocs
	}
}

// cpuSeconds is the user plus system CPU time the process has used. Time
// the hypervisor steals from the VM and time other processes run is not
// in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// errCount counts the non-nil entries of a batch result.
func errCount(errs []error) int {
	n := 0
	for _, e := range errs {
		if e != nil {
			n++
		}
	}
	return n
}

// firstErr returns the first non-nil entry of a batch result.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// call is one window as the arguments of its public batch call.
type call struct {
	keys  []parmsf.EdgeKey // a delete window
	edges []parmsf.Edge    // an insert window
}

func newCall(w window) call {
	var c call
	for _, o := range w.ops {
		if w.del {
			c.keys = append(c.keys, parmsf.EdgeKey{U: o.U, V: o.V})
		} else {
			c.edges = append(c.edges, parmsf.Edge{U: o.U, V: o.V, W: o.W})
		}
	}
	return c
}

// apply makes the call on f synchronously.
func (c call) apply(f *parmsf.Forest) []error {
	if c.keys != nil {
		return f.DeleteEdges(c.keys)
	}
	return f.InsertEdges(c.edges)
}

// buildPublic builds a public forest from spec.
func buildPublic(spec forestSpec) (*parmsf.Forest, error) {
	f, errs, err := parmsf.Build(spec.n, spec.base, spec.opt)
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return f, nil
}

// publishMetrics reports the publisher counters accumulated between two
// PublishStats readings.
func publishMetrics(r *report, before, after snapshot.Stats) {
	epochs := float64(after.Epochs - before.Epochs)
	rebases := float64(after.Rebases - before.Rebases)
	r.set("snapshot.delta_share", float64(after.DeltaEpochs-before.DeltaEpochs)/epochs, int(epochs))
	r.set("snapshot.publish_us_per_epoch", float64(after.PublishNs-before.PublishNs)/1e3/epochs, int(epochs))
	rebaseNs := float64((after.PublishNs - before.PublishNs) - (after.DeltaNs - before.DeltaNs))
	if rebases > 0 {
		r.set("snapshot.rebase_ms", rebaseNs/1e6/rebases, int(rebases))
	}
}

// recoverMetric poisons f with an armed crash point on a one-edge insert
// batch of e, then times and reports Recover. The poisoned insert must not
// apply; callers re-check the forest afterwards.
func recoverMetric(r *report, f *parmsf.Forest, e parmsf.Edge) error {
	if err := f.ArmFault("ternary/batch-insert"); err != nil {
		return err
	}
	errs := f.InsertEdges([]parmsf.Edge{e})
	if len(errs) != 1 || !errors.Is(errs[0], parmsf.ErrPoisoned) {
		return fmt.Errorf("armed insert did not poison the forest: %v", errs)
	}
	t0 := time.Now()
	if err := f.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.set("parmsf.recover_ms", float64(time.Since(t0))/1e6, 1)
	return nil
}

// writeSpans dumps the traced run's spans.
func writeSpans(cfg runCfg, name string, api, replay *tracer) error {
	base := fmt.Sprintf("%s-%d", name, cfg.seed)
	if err := api.write(cfg.spans, base+"-api.csv"); err != nil {
		return err
	}
	return replay.write(cfg.spans, base+"-replay.csv")
}
