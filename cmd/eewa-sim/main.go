// Command eewa-sim runs one scheduling policy on one workload and
// prints the result, optionally with an ASCII Gantt chart of the
// schedule, a CSV span dump, a Perfetto-compatible trace and a
// Prometheus metrics snapshot.
//
// Usage:
//
//	eewa-sim -bench sha1 -policy eewa [-cores 16] [-seed 1] [-gantt] [-csv out.csv]
//	eewa-sim -bench sha1 -policy eewa -metrics-out m.prom -trace-out t.json
//	eewa-sim -bench all -policy all        # summary matrix
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-sim: ")
	benchName := flag.String("bench", "sha1", "benchmark: bwc|bzip2|dmc|je|lzw|md5|sha1|membound|all")
	policyName := flag.String("policy", "eewa", "policy: cilk|cilk-d|wats|eewa|all, or an EEWA variant such as eewa-memaware (an unknown name lists them all)")
	cores := flag.Int("cores", 16, "number of cores")
	seed := flag.Uint64("seed", 1, "simulation seed")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
	csvPath := flag.String("csv", "", "write per-task spans to this CSV file")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-format metrics to this file (accumulated over all runs)")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file (last run wins)")
	maxSpans := flag.Int("max-spans", 0, "cap retained trace spans (drop-oldest); 0 keeps every span")
	profileOut := flag.String("profile-out", "", "save the run's workload profile (JSON) for offline reuse")
	profileIn := flag.String("profile-in", "", "load an offline workload profile (JSON); EEWA configures before batch 1")
	flag.Parse()

	// Validate the selector flags up front, so a typo exits non-zero
	// with the full list instead of half-running a matrix or silently
	// simulating the wrong thing.
	cfg := machine.Generic(*cores)
	policies := policy.IDs()
	if *policyName != "all" {
		p, err := policy.New(*policyName, cfg)
		if err != nil {
			log.Fatalf("%v, or all", err)
		}
		// An offline profile only influences EEWA (paper §IV-D); with
		// any other single policy the flag is a no-op the user almost
		// certainly did not intend.
		if _, ok := p.(*policy.EEWA); !ok && *profileIn != "" {
			log.Fatalf("-profile-in only affects EEWA policies, but -policy is %q", *policyName)
		}
		policies = []string{*policyName}
	}

	var benches []workloads.Benchmark
	if *benchName == "all" {
		benches = workloads.All()
	} else {
		b, err := workloads.ByName(*benchName)
		if err != nil {
			log.Fatalf("unknown benchmark %q (want one of %v, membound, or all)", *benchName, workloads.Names())
		}
		benches = []workloads.Benchmark{b}
	}

	var offline *profile.Snapshot
	if *profileIn != "" {
		if *policyName == "all" {
			log.Printf("note: -profile-in applies only to the %s runs of the matrix", policy.IDEEWA)
		}
		f, err := os.Open(*profileIn)
		if err != nil {
			log.Fatal(err)
		}
		offline, err = profile.DecodeSnapshot(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := offline.Validate(nil); err != nil {
			log.Fatalf("rejecting %s: %v", *profileIn, err)
		}
	}

	// One registry accumulates across every run of the invocation, so
	// `-bench all` snapshots the whole matrix.
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}

	for _, b := range benches {
		w := b.Workload(*seed)
		for _, pname := range policies {
			p, err := policy.New(pname, cfg)
			if err != nil {
				log.Fatal(err)
			}
			if e, ok := p.(*policy.EEWA); ok {
				e.Offline = offline
			}
			params := sched.Params{Seed: *seed, Obs: reg}
			var rec *trace.Recorder
			if *gantt || *csvPath != "" || *traceOut != "" {
				rec = &trace.Recorder{MaxSpans: *maxSpans}
				params.Recorder = rec
			}
			res, err := sched.Run(cfg, w, p, params)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res)
			fmt.Printf("  batches: T=%.4fs, census per batch: %v\n", res.BatchTimes[0], res.BatchCensus)
			fmt.Printf("  busy/spin/halt core-seconds: %.3f/%.3f/%.3f, DVFS transitions: %d\n",
				res.BusyTime, res.SpinTime, res.HaltTime, res.DVFSTransitions)
			if res.MemoryBound {
				fmt.Println("  (classified memory-bound: EEWA fell back to classic stealing)")
			}
			if rec != nil && *gantt {
				fmt.Print(rec.Gantt(100))
			}
			if rec != nil && rec.Dropped() > 0 {
				fmt.Printf("  (trace capped at %d spans: %d oldest dropped)\n", rec.Len(), rec.Dropped())
			}
			if *profileOut != "" && res.Profile != nil {
				f, err := os.Create(*profileOut)
				if err != nil {
					log.Fatal(err)
				}
				if err := res.Profile.Encode(f); err != nil {
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  profile written to %s\n", *profileOut)
			}
			if rec != nil && *csvPath != "" {
				if err := writeTo(*csvPath, rec.CSV); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  spans written to %s\n", *csvPath)
			}
			if rec != nil && *traceOut != "" {
				if err := writeTo(*traceOut, rec.WriteTraceEvents); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  trace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
			}
		}
	}

	if reg != nil {
		if err := writeTo(*metricsOut, reg.WritePrometheus); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
}

// writeTo creates path and streams write into it.
func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
