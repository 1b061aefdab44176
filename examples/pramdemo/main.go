// PRAM demo: run the Section 3 parallel algorithm on the simulated EREW
// machine and watch the Theorem 3.1 quantities — per-update parallel depth
// staying logarithmic and processor usage staying O(sqrt n) — as the graph
// grows.
package main

import (
	"fmt"
	"math"

	"parmsf"
	"parmsf/internal/workload"
)

func main() {
	for _, n := range []int{256, 1024, 4096} {
		f, err := parmsf.New(n, parmsf.Options{Workers: 1, MaxEdges: 8 * n})
		if err != nil {
			panic(err)
		}
		m := f.PRAM()

		base := workload.DegreeBounded(n, n, 3, uint64(n))
		stream := workload.Churn(n, base, 500, true, uint64(n)+1)

		var loaded int
		var maxDepth, totalDepth, ops int64
		for i, op := range stream.Ops {
			before := m.Time
			var err error
			if op.Kind == workload.OpInsert {
				err = f.Insert(op.U, op.V, op.W)
			} else {
				err = f.Delete(op.U, op.V)
			}
			if err != nil {
				panic(err)
			}
			if i < len(base) {
				loaded++
				continue // warm-up: building the initial graph
			}
			d := m.Time - before
			totalDepth += d
			if d > maxDepth {
				maxDepth = d
			}
			ops++
		}
		logn := math.Log2(float64(n))
		fmt.Printf("n=%5d: %4d measured updates | depth mean=%6.1f max=%6d | depth/log2(n)=%5.1f | peak processors=%4d (%.1f*sqrt n) | total work=%d\n",
			n, ops, float64(totalDepth)/float64(ops), maxDepth,
			float64(totalDepth)/float64(ops)/logn,
			m.MaxActive, float64(m.MaxActive)/math.Sqrt(float64(n)), m.Work)
	}
	fmt.Println("\nTheorem 3.1: depth/log2(n) and processors/sqrt(n) stay bounded as n grows.")
}
