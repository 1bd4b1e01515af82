// Liveruntime: the paper's schedulers running on real goroutines with
// real payloads — the from-scratch compression and hash kernels of
// internal/kernels — instead of the discrete-event simulator. All four
// policies (cilk, cilk-d, wats, eewa) run through the shared
// internal/policy core, so the decisions here are the same ones the
// simulator makes.
//
// The batch structure mirrors the paper's benchmarks: every batch
// hashes a few large files (chunky, stays fast) and compresses many
// small chunks (fine-grained, gets down-clocked). DVFS is emulated by
// duty-cycle throttling; energy comes from the same power model as the
// simulator. Expect EEWA to report lower modeled energy than Cilk at a
// similar wall time.
//
// Run with:
//
//	go run ./examples/liveruntime [-workers 8] [-batches 5]
//	go run ./examples/liveruntime -policy cilk,eewa     # subset
//	go run ./examples/liveruntime -metrics-addr :9090   # scrape /metrics
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	eewa "repro"
	"repro/internal/kernels"
)

func main() {
	log.SetFlags(0)
	workers := flag.Int("workers", 8, "worker goroutines")
	batches := flag.Int("batches", 5, "number of batches")
	policyList := flag.String("policy", "all", "comma-separated policies (cilk|cilk-d|wats|eewa) or all")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	metricsOut := flag.String("metrics-out", "", "write final Prometheus-format metrics to this file")
	flag.Parse()

	var reg *eewa.Metrics
	if *metricsAddr != "" || *metricsOut != "" {
		reg = eewa.NewMetrics()
	}
	if *metricsAddr != "" {
		addr, stop, err := eewa.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("metrics on http://%s/metrics\n", addr)
	}

	// Deterministic corpus: a few large "files" and many small chunks.
	large := make([][]byte, 2)
	for i := range large {
		large[i] = kernels.TextCorpus(42+uint64(i), 96<<10)
	}
	small := make([][]byte, 40)
	for i := range small {
		small[i] = kernels.TextCorpus(100+uint64(i), 3<<10)
	}

	names := eewa.PolicyNames()
	if *policyList != "all" {
		names = strings.Split(*policyList, ",")
	}
	for _, name := range names {
		pol := eewa.LivePolicy(strings.TrimSpace(name))
		rt, err := eewa.NewRuntime(eewa.LiveConfig{
			Workers: *workers, Machine: eewa.Opteron16(), Policy: pol, Seed: 1, Obs: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s, %d workers ---\n", pol, *workers)
		start := time.Now()
		for b := 0; b < *batches; b++ {
			tasks := makeBatch(large, small)
			bs := rt.RunBatch(tasks)
			fmt.Printf("batch %d: %4d tasks in %8v, census %v, %3d steals, %7.2f J\n",
				b+1, bs.Tasks, bs.Wall.Round(time.Millisecond), bs.Census, bs.Steals, bs.Energy)
		}
		st := rt.Stats()
		fmt.Printf("total: %d tasks, wall %v, modeled energy %.1f J (%.1f W avg)\n\n",
			st.Tasks, time.Since(start).Round(time.Millisecond), st.Energy,
			st.Energy/st.Wall.Seconds())
	}

	if *metricsOut != "" {
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

// makeBatch builds one batch: SHA-1 over the large files (heavy class)
// and BWC compression of the small chunks (light class).
func makeBatch(large, small [][]byte) []eewa.LiveTask {
	var tasks []eewa.LiveTask
	for _, data := range large {
		data := data
		tasks = append(tasks, eewa.LiveTask{
			Class: "sha1/file",
			Run: func() {
				sum := kernels.SHA1(data)
				kernels.KeepAlive(sum[:])
			},
		})
	}
	for _, data := range small {
		data := data
		tasks = append(tasks, eewa.LiveTask{
			Class: "bwc/chunk",
			Run: func() {
				kernels.KeepAlive(kernels.BWC(data))
			},
		})
	}
	return tasks
}
