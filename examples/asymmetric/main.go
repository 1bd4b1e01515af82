// Asymmetric: the paper's Fig. 7 scenario as a library walkthrough.
// EEWA's modal frequency configuration for a benchmark is frozen into
// the hardware; then random work stealing (Cilk) and workload-aware
// stealing without DVFS (WATS) run on the resulting asymmetric
// machine, against EEWA with full DVFS control.
//
// Expected shape (paper: Cilk 1.17–2.92×, WATS 1.05–1.24× EEWA's
// time): random stealing collapses on asymmetric machines because it
// keeps handing heavy tasks to slow cores; WATS fixes placement but
// cannot re-tune frequencies between batches.
//
// Run with:
//
//	go run ./examples/asymmetric [-bench sha1]
package main

import (
	"flag"
	"fmt"
	"log"

	eewa "repro"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	benchName := flag.String("bench", "sha1", "Table II benchmark")
	flag.Parse()

	cfg := eewa.Opteron16()
	b, err := workloads.ByName(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	w := b.Workload(1)

	// Step 1: run EEWA and extract its modal configuration.
	eewaRes, err := eewa.Simulate(cfg, w, eewa.PolicyEEWA)
	if err != nil {
		log.Fatal(err)
	}
	levels := experiments.ModalLevels(eewaRes.BatchCensus)
	census := map[int]int{}
	for _, l := range levels {
		census[l]++
	}
	fmt.Printf("%s: EEWA's modal configuration:", b.Name)
	for lvl := 0; lvl < len(cfg.Freqs); lvl++ {
		if census[lvl] > 0 {
			fmt.Printf(" %d cores @ %.1f GHz", census[lvl], cfg.Freqs[lvl])
		}
	}
	fmt.Println()

	// Step 2: freeze it and run the baselines.
	cilkFixed, err := policy.NewCilkFixed(levels, len(cfg.Freqs))
	if err != nil {
		log.Fatal(err)
	}
	cilkRes, err := sched.Run(cfg, w, cilkFixed, eewa.Params{})
	if err != nil {
		log.Fatal(err)
	}
	wats, err := policy.NewWATS(levels, len(cfg.Freqs))
	if err != nil {
		log.Fatal(err)
	}
	watsRes, err := sched.Run(cfg, w, wats, eewa.Params{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %12s %12s\n", "policy", "time (s)", "vs EEWA")
	rows := []struct {
		name string
		res  *eewa.Result
	}{
		{"Cilk (random steal)", cilkRes},
		{"WATS (aware, no DVFS)", watsRes},
		{"EEWA (aware + DVFS)", eewaRes},
	}
	for _, r := range rows {
		fmt.Printf("%-22s %12.4f %11.2fx\n", r.name, r.res.Makespan, r.res.Makespan/eewaRes.Makespan)
	}
	fmt.Printf("\nsteals: Cilk %d, WATS %d, EEWA %d — preference lists steer\n",
		cilkRes.Steals, watsRes.Steals, eewaRes.Steals)
	fmt.Println("steals toward the right c-groups instead of random victims.")
}
