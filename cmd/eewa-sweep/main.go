// Command eewa-sweep explores the design space: any combination of
// benchmarks, policies, core counts and seeds, as a text table or CSV.
// The cluster topology axes — shard count × ladder split × routing
// policy — are axes of the same grid, comparing routing rules cell for
// cell the way scheduling policies are compared; they default to one
// shard, which is the paper's own grid.
//
// Usage:
//
//	eewa-sweep                                   # full default grid
//	eewa-sweep -bench sha1,md5 -cores 4,8,16,32 -policies cilk,eewa
//	eewa-sweep -csv out.csv -seeds 5
//	eewa-sweep -j 8 -json cells.json             # 8-way fan-out, per-cell JSON
//	eewa-sweep -shards 1,2,4 -routing class,rr,least -policies cilk,eewa
//	eewa-sweep -shards 1,2 -ladder-split uniform,tiered -csv cluster.csv
//	eewa-sweep -policies eewa,eewa-exhaustive,eewa-greedy   # search ablation
//
// Cells are sharded across -j worker goroutines (default GOMAXPROCS;
// the count must be positive); every worker count produces
// byte-identical results — per-cell RNG streams are derived from the
// cell's seed, never shared — so -j only changes wall-clock time,
// which -json reports per cell. A one-shard cell is the cell
// eewa-bench's Fig. 6 and Fig. 9 report.
package main

import (
	"flag"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-sweep: ")
	benches := flag.String("bench", "", "comma-separated benchmarks, Table II's or membound (default: all seven of Table II)")
	policies := flag.String("policies", "", "comma-separated policies: cilk,cilk-d,wats,eewa or EEWA variants such as eewa-greedy (default: cilk,cilk-d,eewa)")
	cores := flag.String("cores", "", "comma-separated core counts per shard (default: 16)")
	nseeds := flag.Int("seeds", len(sweep.DefaultSeeds), "number of seeds per cell (must be positive)")
	csvPath := flag.String("csv", "", "write CSV to this file instead of a table to stdout")
	jsonPath := flag.String("json", "", "write per-cell JSON (with host wall time) to this file")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "cells simulated concurrently (must be positive)")
	shardsList := flag.String("shards", "", "comma-separated shard counts (default: 1)")
	routings := flag.String("routing", "", "comma-separated routing policies: class,rr,least (default: class)")
	splits := flag.String("ladder-split", "", "comma-separated ladder splits: uniform,tiered (default: uniform)")
	flag.Parse()

	// A zero or negative worker count is a misconfiguration, not a
	// request for the default: fail loudly instead of silently falling
	// back to one behavior or another.
	if *workers <= 0 {
		log.Printf("-j must be positive, got %d", *workers)
		flag.Usage()
		os.Exit(2)
	}

	seeds, err := sweep.SeedList(*nseeds)
	if err != nil {
		log.Printf("-seeds: %v", err)
		flag.Usage()
		os.Exit(2)
	}
	grid := sweep.Grid{
		Benchmarks:   splitList(*benches),
		Policies:     splitList(*policies),
		Cores:        intList("-cores", *cores),
		Seeds:        seeds,
		Shards:       intList("-shards", *shardsList),
		Routings:     splitList(*routings),
		LadderSplits: splitList(*splits),
	}
	// The axes get the same up-front validation as -j: a typo'd policy,
	// benchmark or routing name is a usage error before any cell runs.
	if err := grid.Validate(); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}

	cells, err := sweep.RunCells(grid, *workers)
	if err != nil {
		log.Fatal(err)
	}
	records := sweep.Aggregate(cells)
	if *jsonPath != "" {
		writeFile(*jsonPath, func(f *os.File) error { return sweep.WriteCellsJSON(f, cells) })
		log.Printf("wrote %d cells to %s", len(cells), *jsonPath)
	}
	if *csvPath != "" {
		writeFile(*csvPath, func(f *os.File) error { return sweep.WriteCSV(f, records) })
		log.Printf("wrote %d records to %s", len(records), *csvPath)
		return
	}
	if err := sweep.WriteTable(os.Stdout, records); err != nil {
		log.Fatal(err)
	}
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func intList(flagName, s string) []int {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			log.Fatalf("bad %s value %q (want a positive integer)", flagName, part)
		}
		out = append(out, n)
	}
	return out
}
