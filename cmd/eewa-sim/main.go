// Command eewa-sim runs one scheduling policy on one workload and
// prints the result, optionally with an ASCII Gantt chart of the
// schedule, a CSV span dump, a Perfetto-compatible trace and a
// Prometheus metrics snapshot.
//
// Usage:
//
//	eewa-sim -bench sha1 -policy eewa [-cores 16] [-seed 1] [-gantt] [-csv out.csv]
//	eewa-sim -bench sha1 -policy eewa -metrics-out m.prom -trace-out t.json
//
// Whole grids are eewa-sweep's; metrics over a whole experiment are
// eewa-bench -metrics-out.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

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
	benchName := flag.String("bench", "sha1", "benchmark: bwc|bzip2|dmc|je|lzw|md5|sha1|membound")
	policyName := flag.String("policy", "eewa", "policy: cilk|cilk-d|wats|eewa, or an EEWA variant such as eewa-memaware (an unknown name lists them all)")
	cores := flag.Int("cores", 16, "number of cores")
	seed := flag.Uint64("seed", 1, "simulation seed")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
	csvPath := flag.String("csv", "", "write per-task spans to this CSV file")
	metricsOut := flag.String("metrics-out", "", "write the run's Prometheus-format metrics to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file")
	profileOut := flag.String("profile-out", "", "save the run's workload profile (JSON) for offline reuse")
	profileIn := flag.String("profile-in", "", "load an offline workload profile (JSON); EEWA configures before batch 1")
	flag.Parse()

	// Validate the selector flags up front, so a typo exits non-zero
	// with the full list instead of silently simulating the wrong thing.
	cfg := machine.Generic(*cores)
	p, err := policy.New(*policyName, cfg)
	if err != nil {
		log.Fatal(err)
	}
	e, isEEWA := p.(*policy.EEWA)
	// An offline profile only influences EEWA (paper §IV-D); with any
	// other policy the flag is a no-op the user almost certainly did not
	// intend.
	if !isEEWA && *profileIn != "" {
		log.Fatalf("-profile-in only affects EEWA policies, but -policy is %q", *policyName)
	}
	b, err := workloads.ByName(*benchName)
	if err != nil {
		log.Fatalf("unknown benchmark %q (want one of %s, membound)", *benchName, strings.Join(workloads.Names(), ", "))
	}

	if *profileIn != "" {
		f, err := os.Open(*profileIn)
		if err != nil {
			log.Fatal(err)
		}
		offline, err := profile.DecodeSnapshot(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := offline.Validate(nil); err != nil {
			log.Fatalf("rejecting %s: %v", *profileIn, err)
		}
		e.Offline = offline
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	params := sched.Params{Seed: *seed, Obs: reg}
	var rec *trace.Recorder
	if *gantt || *csvPath != "" || *traceOut != "" {
		rec = &trace.Recorder{}
		params.Recorder = rec
	}
	res, err := sched.Run(cfg, b.Workload(*seed), p, params)
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
	if *profileOut != "" && res.Profile != nil {
		if err := writeTo(*profileOut, res.Profile.Encode); err != nil {
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
