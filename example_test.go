package eewa_test

import (
	"fmt"

	eewa "repro"
)

// ExampleSimulate runs one benchmark under EEWA and prints the
// steady-state frequency census — the paper's Fig. 8 in four lines.
func ExampleSimulate() {
	cfg := eewa.Opteron16()
	w := eewa.MustBenchmark("sha1").Workload(1)
	res, err := eewa.Simulate(cfg, w, eewa.PolicyEEWA)
	if err != nil {
		panic(err)
	}
	fmt.Println("first batch:", res.BatchCensus[0])
	fmt.Println("steady state:", res.BatchCensus[9])
	// Output:
	// first batch: [16 0 0 0]
	// steady state: [5 0 0 11]
}

// ExampleCompare reproduces the headline Fig. 6 comparison for one
// benchmark.
func ExampleCompare() {
	cmp, err := eewa.Compare(eewa.Opteron16(), eewa.MustBenchmark("md5").Workload(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("energy ordering holds: %v\n",
		cmp.EEWA.Energy < cmp.CilkD.Energy && cmp.CilkD.Energy < cmp.Cilk.Energy)
	fmt.Printf("EEWA saves more than 20%%: %v\n", cmp.EnergySaving() > 0.20)
	// Output:
	// energy ordering holds: true
	// EEWA saves more than 20%: true
}
