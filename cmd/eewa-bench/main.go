// Command eewa-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	eewa-bench -exp fig1|fig6|fig7|fig8|fig9|table3|ablation|all [-seeds n]
//	eewa-bench -exp fig6 -metrics-out bench.prom     # metrics over all runs
//
// A Perfetto trace of one run is eewa-sim's -trace-out.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-bench: ")
	exp := flag.String("exp", "all", "experiment to run: fig1, fig6, fig7, fig8, fig9, table3, membound, ablation, all")
	nseeds := flag.Int("seeds", len(sweep.DefaultSeeds), "number of seeds to average over")
	plot := flag.Bool("plot", false, "append ASCII bar charts to fig6/fig9 output")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-format metrics accumulated over every simulation to this file")
	flag.Parse()

	seeds := make([]uint64, *nseeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	cfg := machine.Opteron16()

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		experiments.Observe(reg)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("fig1", func() error {
		fmt.Print(experiments.RenderFig1(experiments.Fig1(1.0)))
		return nil
	})
	run("fig6", func() error {
		rows, err := experiments.Fig6(seeds)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig6(rows))
		if *plot {
			fmt.Println()
			fmt.Print(experiments.RenderFig6Chart(rows))
		}
		return nil
	})
	run("fig7", func() error {
		rows, err := experiments.Fig7(cfg, seeds)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig7(rows))
		return nil
	})
	run("fig8", func() error {
		res, err := experiments.Fig8(cfg, seeds[0])
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig8(res))
		return nil
	})
	run("fig9", func() error {
		points, err := experiments.Fig9(seeds)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig9(points))
		if *plot {
			fmt.Println()
			fmt.Print(experiments.RenderFig9Chart(points))
		}
		return nil
	})
	run("membound", func() error {
		res, err := experiments.MemBound(cfg, seeds)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderMemBound(res))
		return nil
	})
	run("table3", func() error {
		rows, err := experiments.Table3(cfg, seeds[0])
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable3(rows))
		return nil
	})
	run("ablation", func() error {
		rows, err := experiments.AblationSearch(cfg, seeds)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblation(
			"Ablation — tuple search algorithm (EEWA variants)",
			rows, []string{"backtracking", "exhaustive", "greedy"}))
		fmt.Println()
		rows, err = experiments.AblationGranularity(cfg, seeds)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblation(
			"Ablation — CC-table formula (granularity-aware vs paper's divisible-load)",
			rows, []string{"granular", "divisible"}))
		fmt.Println()
		rows, err = experiments.AblationPackages(seeds)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblation(
			"Ablation — package voltage coupling (EEWA on coupled vs per-core planes)",
			rows, []string{"coupled", "uncoupled"}))
		return nil
	})

	switch *exp {
	case "fig1", "fig6", "fig7", "fig8", "fig9", "table3", "membound", "ablation", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
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
