// Command eewa-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	eewa-bench -exp fig1|fig6|fig7|fig8|fig9|table3|ablation|all [-seeds n]
//	eewa-bench -exp fig6 -metrics-out bench.prom     # metrics over all runs
//	eewa-bench -exp live [-live-workers 8]           # goroutine runtime, all policies
//	eewa-bench -trace-out sha1.json                  # trace one EEWA run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-bench: ")
	exp := flag.String("exp", "all", "experiment to run: fig1, fig6, fig7, fig8, fig9, table3, membound, ablation, live, all (live is excluded from all — it measures wall time)")
	nseeds := flag.Int("seeds", len(experiments.DefaultSeeds), "number of seeds to average over")
	liveWorkers := flag.Int("live-workers", 8, "worker goroutines for -exp live")
	liveBatches := flag.Int("live-batches", 5, "batches per policy for -exp live")
	plot := flag.Bool("plot", false, "append ASCII bar charts to fig6/fig9 output")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-format metrics accumulated over every simulation to this file")
	traceOut := flag.String("trace-out", "", "write a Perfetto trace of one SHA-1/EEWA run (seed 1) to this file")
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
		rows, err := experiments.Fig6(cfg, seeds)
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

	// The live experiment measures real wall time on whatever machine
	// runs it, so it is opt-in only — never part of -exp all.
	if *exp == "live" {
		if err := runLive(*liveWorkers, *liveBatches, reg); err != nil {
			log.Fatalf("live: %v", err)
		}
	}

	switch *exp {
	case "fig1", "fig6", "fig7", "fig8", "fig9", "table3", "membound", "ablation", "live", "all":
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
	if *traceOut != "" {
		if err := writeSampleTrace(cfg, *traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
}

// runLive executes the liveruntime workload (SHA-1 over large files +
// BWC over many small chunks) on the goroutine runtime under every
// policy and prints a comparison table. All four policies go through
// the shared internal/policy core — the same decision code the
// simulator executes.
func runLive(workers, batches int, reg *obs.Registry) error {
	large := make([][]byte, 2)
	for i := range large {
		large[i] = kernels.TextCorpus(42+uint64(i), 96<<10)
	}
	small := make([][]byte, 40)
	for i := range small {
		small[i] = kernels.TextCorpus(100+uint64(i), 3<<10)
	}
	makeBatch := func() []rt.Task {
		var tasks []rt.Task
		for _, data := range large {
			data := data
			tasks = append(tasks, rt.Task{Class: "sha1/file", Run: func() {
				sum := kernels.SHA1(data)
				kernels.KeepAlive(sum[:])
			}})
		}
		for _, data := range small {
			data := data
			tasks = append(tasks, rt.Task{Class: "bwc/chunk", Run: func() {
				kernels.KeepAlive(kernels.BWC(data))
			}})
		}
		return tasks
	}

	fmt.Printf("Live goroutine runtime — %d workers, %d batches per policy\n", workers, batches)
	fmt.Printf("%-8s %10s %10s %8s\n", "policy", "wall", "energy_j", "steals")
	var baseline float64
	for _, name := range policy.IDs() {
		pol, err := rt.ParsePolicy(name)
		if err != nil {
			return err
		}
		r, err := rt.New(rt.Config{Workers: workers, Machine: machine.Opteron16(), Policy: pol, Seed: 1, Obs: reg})
		if err != nil {
			return err
		}
		start := time.Now()
		for b := 0; b < batches; b++ {
			r.RunBatch(makeBatch())
		}
		wall := time.Since(start)
		st := r.Stats()
		note := ""
		if name == policy.IDCilk {
			baseline = st.Energy
		} else if baseline > 0 {
			note = fmt.Sprintf("  (%+.1f%% energy vs cilk)", 100*(st.Energy/baseline-1))
		}
		fmt.Printf("%-8s %10v %10.1f %8d%s\n",
			name, wall.Round(time.Millisecond), st.Energy, st.Steals, note)
	}
	return nil
}

// writeSampleTrace runs the paper's flagship benchmark (SHA-1 under
// EEWA, seed 1) with the span recorder attached and writes the schedule
// as Perfetto-compatible trace-event JSON. Tracing one representative
// run keeps the file meaningful; overlaying every experiment run on the
// same timeline would not be.
func writeSampleTrace(cfg machine.Config, path string) error {
	b, err := workloads.ByName("sha1")
	if err != nil {
		return err
	}
	rec := &trace.Recorder{}
	params := sched.DefaultParams()
	params.Recorder = rec
	if _, err := sched.Run(cfg, b.Workload(1), policy.NewEEWA(), params); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
