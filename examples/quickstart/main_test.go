package main

// Example runs the tour and pins its output, so a change to the grb API or
// to its results fails the test.
func Example() {
	main()
	// Output:
	// A: 4×4 with 4 entries
	// neighbours of 0: [1 2]
	// two-hop pairs:
	//   0 → 2
	//   0 → 3
	//   1 → 3
	// out-degree of 0: 2
	// out-degree of 1: 1
	// out-degree of 2: 1
	// 10·deg ⊕ bonus:
	//   [0] = 20
	//   [1] = 10
	//   [2] = 15
	//   [3] = 7
	// masked to bonus positions: 2 entries
	// pending before Wait: 1
	// entries after Wait: 5
}
