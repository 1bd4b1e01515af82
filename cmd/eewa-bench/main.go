// Command eewa-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	eewa-bench -exp name|all [-seeds n] [-plot]   # names: eewa-bench -h
//	eewa-bench -exp fig6 -metrics-out bench.prom  # metrics over all runs
//
// A Perfetto trace of one run is eewa-sim's -trace-out.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-bench: ")
	var names []string
	for _, e := range experiments.Experiments {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(append(names, "all"), ", "))
	nseeds := flag.Int("seeds", len(sweep.DefaultSeeds), "number of seeds to average over (must be positive)")
	plot := flag.Bool("plot", false, "append ASCII bar charts to fig6/fig9 output")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-format metrics accumulated over every simulation to this file")
	flag.Parse()

	seeds, err := sweep.SeedList(*nseeds)
	if err != nil {
		log.Printf("-seeds: %v", err)
		flag.Usage()
		os.Exit(2)
	}
	var run []experiments.Experiment
	for _, e := range experiments.Experiments {
		if *exp == "all" || *exp == e.Name {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		experiments.Observe(reg)
	}
	for _, e := range run {
		out, err := e.Output(seeds, *plot)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Println(out)
	}

	if reg != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
}
