// Memorybound: the paper's §IV-D corner — what EEWA does when the
// profiler finds the application memory-bound — and this repository's
// implementation of the paper's stated future work.
//
// Three runs of the same memory-bound workload:
//
//  1. Cilk — the baseline;
//  2. EEWA with the paper's behaviour — detect memory-boundness from
//     the first batch's cache-miss counters and fall back to classic
//     work stealing (only idle down-clocking saves energy);
//  3. EEWA with the MemAware extension — spend one calibration batch at
//     a mid-ladder frequency, fit each class's frequency response
//     t = a + b·(F0/f), and schedule from the model-corrected CC table.
//
// Run with:
//
//	go run ./examples/memorybound
package main

import (
	"fmt"
	"log"

	eewa "repro"
)

func main() {
	log.SetFlags(0)

	cfg := eewa.Opteron16()
	b := eewa.MustBenchmark("membound")
	w := b.Workload(1)
	fmt.Printf("workload: %s — %s\n\n", b.Name, b.Desc)

	cilk, err := eewa.Simulate(cfg, w, eewa.PolicyCilk)
	if err != nil {
		log.Fatal(err)
	}

	fallback, err := eewa.Simulate(cfg, w, eewa.PolicyEEWA)
	if err != nil {
		log.Fatal(err)
	}

	res, err := eewa.Simulate(cfg, w, "eewa-memaware")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %10s %12s %10s\n", "discipline", "time (s)", "energy (J)", "saving")
	for _, row := range []struct {
		name string
		r    *eewa.Result
	}{
		{"Cilk", cilk},
		{"EEWA (§IV-D fallback)", fallback},
		{"EEWA (MemAware extension)", res},
	} {
		fmt.Printf("%-28s %10.4f %12.1f %9.1f%%\n",
			row.name, row.r.Makespan, row.r.Energy, 100*(1-row.r.Energy/cilk.Energy))
	}

	fmt.Println("\nMemAware census per batch (batch 2 is the calibration batch):")
	for bi, census := range res.BatchCensus {
		note := ""
		switch bi {
		case 0:
			note = "  <- all-fast warmup (defines T)"
		case 1:
			note = "  <- calibration at the mid-ladder level"
		case 2:
			note = "  <- model-based configuration from here on"
		}
		fmt.Printf("  batch %2d: %v%s\n", bi+1, census, note)
	}
	fmt.Printf("\nfallback kept every batch at F0: %v\n", fallback.BatchCensus[len(fallback.BatchCensus)-1])
}
