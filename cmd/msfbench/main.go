// Command msfbench prints the experiment tables: one table per
// theorem/lemma/comparison of the paper (experiments.Registry in
// internal/experiments is the experiment index, E1..E20).
//
// Every experiment is measured once per invocation. With -batchjson the
// batch experiments E12..E20 are all measured first, into the report the
// flag writes, and the selected E12..E20 tables print from that report, so
// every row they show is an entry of FILE.
//
// Usage:
//
//	msfbench                                # run every experiment at quick scale
//	msfbench -exp E1,E4                     # selected experiments
//	msfbench -full                          # paper-scale sizes (slower)
//	msfbench -repeat 7                      # 7 runs per timed section (best + median)
//	msfbench -exp none -batchjson FILE      # machine-readable batch report only
//	msfbench -exp E14,E15 -batchjson FILE   # sparsify batch tables + refreshed report
//	msfbench -exp E16                       # concurrent serving plane (readers vs ingest writers)
//	msfbench -exp E17                       # bulk constructor vs incremental cold-start load
//	msfbench -exp E18                       # incremental snapshot publication (delta vs sweep)
//	msfbench -exp E20                       # sharded cluster write scaling vs shard count
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parmsf/internal/experiments"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1..E20), 'all', or 'none'")
	full := flag.Bool("full", false, "paper-scale sizes")
	batchJSON := flag.String("batchjson", "", "write the E12-E20 batch measurements as JSON to this path (BENCH_batch.json)")
	repeat := flag.Int("repeat", 3, "runs per timed section; tables and the batch report carry best + median")
	flag.Parse()

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "msfbench: -repeat must be >= 1")
		os.Exit(2)
	}
	experiments.Repeat = *repeat

	var ids []string
	switch strings.ToLower(strings.TrimSpace(*expFlag)) {
	case "all":
		ids = experiments.Order
	case "none":
	default:
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := experiments.Registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "msfbench: unknown experiment %q (known: %s)\n",
					id, strings.Join(experiments.Order, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	if len(ids) > 0 {
		fmt.Printf("# parmsf experiment tables (%s scale)\n\n", map[bool]string{false: "quick", true: "full"}[*full])
	}
	var rep *experiments.BatchReport
	if *batchJSON != "" {
		start := time.Now()
		rep = experiments.BuildBatchReport(scale)
		fmt.Printf("[batch report E12-E20 measured in %v]\n\n", time.Since(start).Round(time.Millisecond))
	}
	for _, id := range ids {
		start := time.Now()
		if rep == nil || !rep.Table(os.Stdout, id) {
			experiments.Registry[id](os.Stdout, scale)
		}
		fmt.Printf("[%s finished in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if rep != nil {
		if err := rep.WriteJSON(*batchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "msfbench: writing %s: %v\n", *batchJSON, err)
			os.Exit(1)
		}
		fmt.Printf("wrote batch measurements to %s\n", *batchJSON)
	}
}
