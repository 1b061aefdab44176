package parmsf_test

import (
	"fmt"
	"sort"

	"parmsf"
)

// ExampleNew demonstrates the basic maintain-query loop.
func ExampleNew() {
	f := parmsf.MustNew(5, parmsf.Options{})
	f.Insert(0, 1, 10)
	f.Insert(1, 2, 20)
	f.Insert(0, 2, 5) // closes a cycle; the heaviest cycle edge stays out
	fmt.Println("weight:", f.Weight())
	fmt.Println("connected(0,2):", f.Connected(0, 2))
	f.Delete(0, 1) // forest edge: replaced automatically
	fmt.Println("weight after delete:", f.Weight())
	// Output:
	// weight: 15
	// connected(0,2): true
	// weight after delete: 25
}

// ExampleForest_InsertEdges shows the batch-update API on the
// goroutine-parallel backend: the batch is validated and weight-sorted on
// the worker pool, then applied deterministically.
func ExampleForest_InsertEdges() {
	f := parmsf.MustNew(6, parmsf.Options{Workers: 4})
	defer f.Close()
	errs := f.InsertEdges([]parmsf.Edge{
		{U: 0, V: 1, W: 9},
		{U: 1, V: 2, W: 8},
		{U: 0, V: 2, W: 7}, // triangle: the weight-9 edge stays out
		{U: 3, V: 3, W: 1}, // self loop: rejected, rest of the batch applies
	})
	fmt.Println("weight:", f.Weight(), "size:", f.Size())
	fmt.Println("bad edge error:", errs[3] != nil)
	fmt.Println("depth:", f.PRAM().Time > 0)
	// Output:
	// weight: 15 size: 2
	// bad edge error: true
	// depth: true
}

// ExampleForest_Edges shows forest enumeration.
func ExampleForest_Edges() {
	f := parmsf.MustNew(4, parmsf.Options{})
	f.Insert(0, 1, 3)
	f.Insert(2, 3, 4)
	var out []string
	f.Edges(func(u, v int, w parmsf.Weight) bool {
		out = append(out, fmt.Sprintf("(%d,%d)w%d", u, v, w))
		return true
	})
	sort.Strings(out)
	fmt.Println(out)
	// Output:
	// [(0,1)w3 (2,3)w4]
}

// ExampleForest_PRAM runs the Section 3 parallel algorithm and reads the
// EREW machine's counters.
func ExampleForest_PRAM() {
	f := parmsf.MustNew(64, parmsf.Options{Workers: 1})
	f.Insert(0, 1, 1)
	m := f.PRAM()
	fmt.Println("depth grew:", m.Time > 0)
	fmt.Println("work >= depth:", m.Work >= m.Time)
	// Output:
	// depth grew: true
	// work >= depth: true
}

// ExampleForest_Components tracks the component count under churn.
func ExampleForest_Components() {
	f := parmsf.MustNew(6, parmsf.Options{})
	fmt.Println(f.Components())
	f.Insert(0, 1, 1)
	f.Insert(2, 3, 1)
	f.Insert(4, 5, 1)
	fmt.Println(f.Components())
	f.Insert(1, 2, 1)
	fmt.Println(f.Components())
	// Output:
	// 6
	// 3
	// 2
}
