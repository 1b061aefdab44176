package main

// Example pins the demo's PRAM counters at n = 256, 1,024 and 4,096. They
// are deterministic and the same for every worker count, so a change that
// moves any charge of the update path changes this output.
func Example() {
	main()
	// Output:
	// n=  256:  500 measured updates | depth mean= 381.9 max=  1267 | depth/log2(n)= 47.7 | peak processors= 806 (50.4*sqrt n) | total work=16690728
	// n= 1024:  500 measured updates | depth mean= 456.2 max=  1563 | depth/log2(n)= 45.6 | peak processors=1598 (49.9*sqrt n) | total work=59002697
	// n= 4096:  500 measured updates | depth mean= 468.2 max=  1617 | depth/log2(n)= 39.0 | peak processors=3180 (49.7*sqrt n) | total work=302969985
	//
	// Theorem 3.1: depth/log2(n) and processors/sqrt(n) stay bounded as n grows.
}
