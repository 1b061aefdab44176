package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"parmsf"
	"parmsf/internal/stats"
	"parmsf/internal/xrand"
)

// This file implements the E19 fault-recovery scenario: a forest under
// churn with snapshot readers attached takes an injected engine panic
// (the core/apply-batch crash point, armed one-shot), and the run records
// how long Recover's journal-driven rebuild takes as the live-edge count
// grows, plus whether the lock-free read plane actually keeps serving
// across the poison -> recover window. buildRecoveryPoints measures it;
// the table formats its points.

// recSample is one run's aggregate of the crash-recovery scenario.
type recSample struct {
	liveEdges    int     // journaled live edges at the moment of the crash
	recoverMS    float64 // Recover() wall milliseconds (rebuild + republish)
	outageMS     float64 // poisoning batch start -> recovered epoch published
	readsHealthy float64 // snapshot reads/sec during the healthy churn window
	readsOutage  float64 // snapshot reads/sec across the outage window
}

// runRecovery executes one crash-recovery run: load 2n edges, churn with
// readers attached to establish the healthy read rate, then arm the
// core/apply-batch crash point, poison the forest with the next batch,
// and time Recover. Readers never stop; the outage read rate comes from
// the same counters over the poison -> recover window.
func runRecovery(n, readers int, seed uint64) recSample {
	f := parmsf.MustNew(n, parmsf.Options{MaxEdges: 8 * n})
	defer f.Close()

	rng := xrand.New(seed)
	seen := map[[2]int]bool{}
	var live [][2]int
	nextW := int64(1000)
	freshBatch := func(count int) []parmsf.Edge {
		batch := make([]parmsf.Edge, 0, count)
		for len(batch) < count {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || u > v && seen[[2]int{v, u}] || u < v && seen[[2]int{u, v}] {
				continue
			}
			k := [2]int{u, v}
			if u > v {
				k = [2]int{v, u}
			}
			seen[k] = true
			live = append(live, k)
			batch = append(batch, parmsf.Edge{U: u, V: v, W: parmsf.Weight(nextW)})
			nextW++
		}
		return batch
	}
	deleteBatch := func(count int) []parmsf.EdgeKey {
		var del []parmsf.EdgeKey
		for i := 0; i < count && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(seen, k)
			del = append(del, parmsf.EdgeKey{U: k[0], V: k[1]})
		}
		return del
	}
	mustApply := func(errs []error) {
		for _, err := range errs {
			if err != nil {
				panic(fmt.Sprintf("experiments: E19 churn failed: %v", err))
			}
		}
	}

	mustApply(f.InsertEdges(freshBatch(2 * n)))

	var stop atomic.Bool
	var reads atomic.Int64
	var started, rg sync.WaitGroup
	started.Add(readers)
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rrng := xrand.New(uint64(5000 + 17*r))
			started.Done()
			sink := 0
			for !stop.Load() {
				s := f.Snapshot()
				if s.Connected(rrng.Intn(n), rrng.Intn(n)) {
					sink++
				}
				sink += s.Components()
				s.Release()
				reads.Add(2)
			}
			_ = sink
		}(r)
	}
	started.Wait()

	// Healthy window: steady churn, readers counting.
	h0, ht0 := reads.Load(), time.Now()
	for round := 0; round < 8; round++ {
		mustApply(f.InsertEdges(freshBatch(32)))
		mustApply(f.DeleteEdges(deleteBatch(32)))
	}
	healthySec := time.Since(ht0).Seconds()
	healthyReads := float64(reads.Load() - h0)

	// Crash window: the armed point fires inside the next batch's engine
	// apply; the batch reports ErrPoisoned and Recover rebuilds from the
	// journal.
	if err := f.ArmFault("core/apply-batch"); err != nil {
		panic(fmt.Sprintf("experiments: E19 arm: %v", err))
	}
	sample := recSample{liveEdges: len(live)}
	o0, ot0 := reads.Load(), time.Now()
	crash := freshBatch(32)
	errs := f.InsertEdges(crash)
	if f.Poisoned() == nil {
		panic("experiments: E19 armed fault never fired")
	}
	_ = errs
	r0 := time.Now()
	if err := f.Recover(); err != nil {
		panic(fmt.Sprintf("experiments: E19 recover: %v", err))
	}
	sample.recoverMS = float64(time.Since(r0).Nanoseconds()) / 1e6
	sample.outageMS = float64(time.Since(ot0).Nanoseconds()) / 1e6
	outageReads := float64(reads.Load() - o0)
	// The rolled-back batch applies cleanly on the recovered engine.
	mustApply(f.InsertEdges(crash))

	stop.Store(true)
	rg.Wait()
	sample.readsHealthy = healthyReads / healthySec
	if sec := sample.outageMS / 1e3; sec > 0 {
		sample.readsOutage = outageReads / sec
	}
	return sample
}

const recReaders = 2

// E19Recovery — crash recovery: journal-driven rebuild time against the
// live-edge count, with snapshot-read continuity across the poison ->
// recover window. Recover reloads the journal through the bulk-build
// path, so recover_ms should scale near-linearly in the live edges; the
// read plane is lock-free off the last published snapshot, so outage
// reads/sec should stay the same order as healthy reads/sec (the window
// is milliseconds, so the rate estimate is coarser there).
func E19Recovery(w io.Writer, rep *BatchReport) {
	tb := stats.NewTable(
		fmt.Sprintf("E19 — crash recovery: injected engine panic, journal rebuild via the bulk path, %d snapshot readers attached (GOMAXPROCS=%d, repeat=%d)",
			recReaders, rep.GOMAXPROCS, rep.Repeat),
		"n", "live edges", "recover ms", "(med)", "outage ms", "healthy reads/s", "outage reads/s")
	for _, p := range rep.Recovery {
		tb.Row(p.N, p.LiveEdges, p.RecoverMS, p.RecoverMSMed, p.OutageMS, p.ReadsHealthyPerSec, p.ReadsOutagePerSec)
	}
	tb.Fprint(w)
	fmt.Fprintln(w, "theory: recover_ms grows ~linearly with the live-edge count (one bulk load), outage reads/s stays the same order as healthy reads/s (readers never block on recovery), and the recovered forest re-admits the rolled-back batch")
	fmt.Fprintln(w)
}

// RecoveryPoint is one problem-size measurement of the E19 crash-recovery
// scenario for BENCH_batch.json.
type RecoveryPoint struct {
	N         int `json:"n"`
	LiveEdges int `json:"live_edges"`
	Host
	RecoverMS          float64 `json:"recover_ms"`
	RecoverMSMed       float64 `json:"recover_ms_median"`
	OutageMS           float64 `json:"outage_ms"`
	ReadsHealthyPerSec float64 `json:"reads_healthy_per_sec"`
	ReadsOutagePerSec  float64 `json:"reads_outage_per_sec"`
}

// buildRecoveryPoints runs the E19 sweep: Repeat runs at each n, run i
// seeded apart from the others. The live-edge count at the crash does not
// depend on the seed.
func buildRecoveryPoints(sc Scale) []RecoveryPoint {
	host := hostNow()
	var out []RecoveryPoint
	for _, n := range sc.sizes() {
		rs := repeat(Repeat, func(i int) recSample {
			return runRecovery(n, recReaders, uint64(n)+977+uint64(i)*101)
		})
		rec := rs.best(func(s recSample) float64 { return s.recoverMS }, cost)
		out = append(out, RecoveryPoint{
			N:                  n,
			LiveEdges:          rs[0].liveEdges,
			Host:               host,
			RecoverMS:          rec.best,
			RecoverMSMed:       rec.med,
			OutageMS:           rs.best(func(s recSample) float64 { return s.outageMS }, cost).best,
			ReadsHealthyPerSec: rs.best(func(s recSample) float64 { return s.readsHealthy }, rate).best,
			ReadsOutagePerSec:  rs.best(func(s recSample) float64 { return s.readsOutage }, rate).best,
		})
	}
	return out
}
