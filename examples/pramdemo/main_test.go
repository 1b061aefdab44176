package main

// Example pins the demo's PRAM counters at n = 256, 1,024 and 4,096. They
// are deterministic and the same for every worker count, so a change that
// moves any charge of the update path changes this output.
func Example() {
	main()
	// Output:
	// n=  256:  500 measured updates | depth mean= 378.2 max=  1252 | depth/log2(n)= 47.3 | peak processors= 806 (50.4*sqrt n) | total work=16465535
	// n= 1024:  500 measured updates | depth mean= 452.1 max=  1547 | depth/log2(n)= 45.2 | peak processors=1598 (49.9*sqrt n) | total work=58169234
	// n= 4096:  500 measured updates | depth mean= 463.9 max=  1601 | depth/log2(n)= 38.7 | peak processors=3180 (49.7*sqrt n) | total work=298546625
	//
	// Theorem 3.1: depth/log2(n) and processors/sqrt(n) stay bounded as n grows.
}
