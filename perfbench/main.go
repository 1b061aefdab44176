// Command perfbench is the serving benchmark of the parmsf module. One run
// generates a seeded workload, drives the public parmsf and cluster APIs
// for a fixed time, checks every answer against a Kruskal reference and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) report the per-layer metrics: they time the public calls
// from outside and replay the same op windows through an engine stack
// composed from the layers' own constructors (stack.go).
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"parmsf/internal/stats"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric a run must report, with units;
// BENCHMARK.json at the repository root lists the same names. The
// end-to-end metrics are costs that stay put when the host is shared:
// process CPU time and heap allocations per update, the median read, the
// live heap, and the set-up time.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"update_cpu_us", "us"},
	{"allocs_per_update", "count"},
	{"read_p50_us", "us"},
	{"heap_mb", "MB"},
}

// wallClock lists the wall-clock serving figures every untraced run
// prints before its result line. They are not in the result: on a shared
// host they move with the neighbours' load (README.md, "Steadiness").
var wallClock = [][2]string{
	{"write_ops_per_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"visible_p99_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"batch_p90_ms", "ms"},
	{"read_p99_us", "us"},
}

var perLayer = [][2]string{
	{"ingest.submit_us_p50", "us"},
	{"ingest.queue_wait_ms_p99", "ms"},
	{"ingest.ops_per_batch", "ops"},
	{"parmsf.build_s", "s"},
	{"parmsf.recover_ms", "ms"},
	{"parmsf.commit_self_us_per_op", "us"},
	{"parmsf.allocs_per_op", "count"},
	{"parmsf.unattributed_share", "ratio"},
	{"parmsf.trace_overhead", "ratio"},
	{"ternary.self_us_per_op", "us"},
	{"ternary.gadget_ops_per_op", "count"},
	{"core.tree_delete_us_p50", "us"},
	{"core.tree_delete_us_p99", "us"},
	{"core.insert_us_p50", "us"},
	{"core.nontree_us_p50", "us"},
	{"core.mwr_queries_per_op", "count"},
	{"core.chunk_ops_per_op", "count"},
	{"core.row_rebuilds_per_op", "count"},
	{"sparsify.batch_ms_p50", "ms"},
	{"sparsify.node_applies_per_batch", "count"},
	{"sparsify.per_edge_fallbacks", "count"},
	{"pram.depth_per_batch", "steps"},
	{"pram.work_per_batch", "ops"},
	{"pram.pool_slowdown", "ratio"},
	{"batch.sort_ms", "ms"},
	{"snapshot.delta_share", "ratio"},
	{"snapshot.publish_us_per_epoch", "us"},
	{"snapshot.rebase_ms", "ms"},
	{"snapshot.read_ns_p50", "ns"},
	{"cluster.compose_us_p50", "us"},
	{"cluster.view_hit_ratio", "ratio"},
	{"cluster.cross_share", "ratio"},
	{"cluster.shard_ops_skew", "ratio"},
	{"workload.gen_lag_p99_ms", "ms"},
}

// runCfg is one run's command line.
type runCfg struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // directory for the traced run's span dump
}

// report collects a run's outcome.
type report struct {
	res     result
	units   map[string]string
	info    map[string]metric // wall-clock figures, printed only
	samples map[string]int
}

func newReport(trace bool) *report {
	r := &report{res: result{Correct: true, Metrics: map[string]metric{}}, units: map[string]string{}, info: map[string]metric{}, samples: map[string]int{}}
	list := slices.Concat(endToEnd, wallClock)
	if trace {
		list = perLayer
		// A layer the workload bypasses reports 0 work; see README.md.
		for _, m := range perLayer {
			r.res.Metrics[m[0]] = metric{Unit: m[1]}
		}
	}
	for _, m := range list {
		r.units[m[0]] = m[1]
	}
	return r
}

// set records a metric the run must report; samples is the number of
// measurements behind it (0 for a count or a ratio of totals).
func (r *report) set(name string, v float64, samples int) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if slices.Contains(wallClock, [2]string{name, unit}) {
		r.info[name] = metric{Value: v, Unit: unit}
	} else {
		r.res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	r.samples[name] = samples
}

// fail marks the run incorrect and counts the failure.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.res.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// note prints an informational line before the result.
func note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// pct returns the p-th percentile of xs (nearest rank), 0 when empty.
func pct(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// heapMB is the in-use heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// mallocs is the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTicks returns the steal and total ticks of the "cpu" line of
// /proc/stat (zeros where the file is unavailable).
func cpuTicks() (steal, total uint64) {
	fh, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workloads maps each workload to the set-up of one of its instances.
var workloads = map[string]func(seed uint64, k int) (instance, error){
	"serve-sparse":  newServe,
	"dense-batch":   newDense,
	"cluster-mixed": newClusterInst,
}

func main() {
	name := flag.String("workload", "", "workload: serve-sparse, dense-batch or cluster-mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spans := flag.String("spans", ".bench_build/spans", "directory for the traced run's span dump")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	r := newReport(cfg.trace)
	steal0, total0 := cpuTicks()
	if err := runWorkload(cfg, r, setup); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	steal1, total1 := cpuTicks()
	note("failed_ratio %g (%d of %d attempted)", float64(r.res.Failed)/float64(max(1, r.res.Attempted)), r.res.Failed, r.res.Attempted)
	host, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "steal_ticks": steal1 - steal0, "total_ticks": total1 - total0,
	})
	note("host %s", host)
	for _, kind := range []struct {
		label string
		ms    map[string]metric
	}{{"wall", r.info}, {"metric", r.res.Metrics}} {
		names := slices.Sorted(maps.Keys(kind.ms))
		for _, n := range names {
			m := kind.ms[n]
			note("%-6s %-34s %14.6g %-6s samples=%d", kind.label, n, m.Value, m.Unit, r.samples[n])
		}
	}
	for n := range r.units {
		_, ok := r.res.Metrics[n]
		if _, wall := r.info[n]; !ok && !wall {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, n)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
}
