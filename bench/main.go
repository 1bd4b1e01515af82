// Command bench is the repository's one benchmark: four workloads over
// the job service (internal/serve), the live runtime (internal/rt) and
// the simulator (internal/sched), driven in-process through their public
// functions only. README.md has the workload and metric tables and the
// interaction predictions; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
//	go run ./bench                         every workload, end-to-end metrics
//	go run ./bench -workload rt-iter       one workload
//	go run ./bench -trace 1                per-layer metrics + bench/out/trace-<workload>.json
//	go run ./bench -sets 10                spread of the end-to-end metrics over ten seeds
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// runCtx is what a workload gets: the input seed, the window and, in a
// traced run, the span recorder.
type runCtx struct {
	seed    uint64
	seconds float64
	rec     *recorder // nil unless tracing
	// smoke is set by the tests only: one build instead of several and no
	// sample floors, so a 0.3 s window can exercise the whole path.
	smoke bool
}

// window is the whole measured window.
func (c *runCtx) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// floor is the least number of samples a window must hold.
func (c *runCtx) floor(n int) int {
	if c.smoke {
		return 1
	}
	return n
}

// outcome is what a workload hands back: the operation counts and the
// metrics of its mode (end-to-end untraced, per-layer traced).
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func newOutcome(attempted, failed int64) *outcome {
	return &outcome{attempted: attempted, failed: failed, metrics: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setUp builds a workload from scratch several times, discarding all but
// the last build, and returns that build with the median build time: one
// build's time is at the mercy of a single GC or page fault. It builds
// at least setupMinReps times and goes on, up to setupMaxReps, until the
// builds add up to setupMinTotal, so a set-up of a few milliseconds gets
// the repetitions its median needs.
func setUp[T any](c *runCtx, build func() (T, error), discard func(T)) (T, float64, error) {
	var env T
	var times []float64
	var total time.Duration
	for i := 0; i < c.floor(setupMinReps) || (!c.smoke && i < setupMaxReps && total < setupMinTotal); i++ {
		if i > 0 {
			discard(env)
		}
		t0 := time.Now()
		var err error
		if env, err = build(); err != nil {
			return env, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return env, stats.Median(times), nil
}

// result is the contract's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceDir is where a traced run leaves its span file.
var traceDir = filepath.Join("bench", "out")

// defsFor is the metric table of a mode.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in one mode and checks that it reported
// exactly the metrics of that mode.
func runOne(w *workloadDef, c *runCtx, traced bool) (*outcome, error) {
	if traced {
		c.rec = newRecorder()
	}
	out, err := w.run(c)
	if err != nil {
		return nil, err
	}
	defs := defsFor(traced)
	if traced {
		path, err := c.rec.write(traceDir, w.Name)
		if err != nil {
			return nil, err
		}
		out.notef("%d spans (%d dropped) in %s", len(c.rec.recorded()), c.rec.dropped.Load(), path)
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			if !traced {
				return nil, fmt.Errorf("metric %s not reported", d.Name)
			}
			out.metrics[d.Name] = 0 // a layer this workload does not exercise
			continue
		}
		if v != v || v-v != 0 { // NaN or Inf
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		if !traced && v <= 0 {
			return nil, fmt.Errorf("metric %s is %v, end-to-end metrics are positive", d.Name, v)
		}
	}
	if len(out.metrics) != len(defs) {
		return nil, fmt.Errorf("%d metrics reported, the mode defines %d", len(out.metrics), len(defs))
	}
	return out, nil
}

func printOutcome(w io.Writer, out *outcome, traced bool) {
	for _, d := range defsFor(traced) {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, out.metrics[d.Name], d.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

func resultLine(out *outcome, traced bool) string {
	r := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defsFor(traced) {
		r.Metrics[d.Name] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(b)
}

func printConfig(w io.Writer, seed uint64, seconds float64, traced bool) {
	mc := cfgMachine()
	fmt.Fprintf(w, "config: workers=%d machine=%s ladder=%v shards=%d max_batch=%d flush_every=%v server_seed=%d obs=%v invariants=%v\n",
		cfgWorkers, mc.Name, []float64(mc.Freqs), cfgShards, cfgMaxBatch, cfgFlushEvery, cfgServerSeed, traced, traced)
	fmt.Fprintf(w, "run: seed=%d window=%gs setup_reps=%d..%d gomaxprocs=%d %s; sim rates are per host second\n",
		seed, seconds, setupMinReps, setupMaxReps, runtime.GOMAXPROCS(0), runtime.Version())
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", defaultSeed, "input-generation seed; the program under test never sees it")
		seconds = flag.Float64("seconds", defaultSeconds, "measured window per workload, seconds")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics and span files; 0: end-to-end metrics")
		sets    = flag.Int("sets", 0, "run this many sets on seeds seed, seed+1, ... and judge the spread of every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *sets < 0 {
		flag.Usage()
		os.Exit(2)
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		run = []workloadDef{*w}
	}
	traced := *trace == 1
	printConfig(os.Stdout, *seed, *seconds, traced)
	if *sets > 0 {
		os.Exit(spread(os.Stdout, run, *seed, *seconds, *sets))
	}
	code := 0
	for i := range run {
		w := &run[i]
		fmt.Printf("%s (%s; per %s)\n", w.Name, w.Op, w.Unit)
		out, err := runOne(w, &runCtx{seed: *seed, seconds: *seconds}, traced)
		if err != nil {
			// A failed check or an invalid window prints no metrics.
			fmt.Printf("  FAILED: %v\n", err)
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			code = 1
			continue
		}
		printOutcome(os.Stdout, out, traced)
		fmt.Println(resultLine(out, traced))
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// spread runs n sets, one seed each, and prints for every end-to-end
// metric on every workload the minimum, median and maximum, the range
// and the interquartile distance as shares of the median, and the bound.
// It measures and judges the way the driver does: every run is a fresh
// process (a run's heap and goroutine pools must not be the next run's
// starting state), and the interquartile share is held against the
// bound. It returns the exit code.
func spread(w io.Writer, run []workloadDef, seed uint64, seconds float64, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(w, "spread: %v\n", err)
		return 1
	}
	vals := map[string][]float64{} // "workload metric" → one value per set
	code := 0
	for s := 0; s < n; s++ {
		for i := range run {
			wd := &run[i]
			cmd := exec.Command(exe, "-workload", wd.Name, "-seed", fmt.Sprint(seed+uint64(s)), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r result
			if err == nil {
				err = json.Unmarshal([]byte(lines[len(lines)-1]), &r)
			}
			if err != nil {
				fmt.Fprintf(w, "set %d seed %d %s FAILED: %v\n", s, seed+uint64(s), wd.Name, err)
				code = 1
				continue
			}
			for _, d := range endToEnd {
				k := wd.Name + " " + d.Name
				vals[k] = append(vals[k], r.Metrics[d.Name].Value)
			}
			fmt.Fprintf(w, "set %d seed %d %s %s\n", s, seed+uint64(s), wd.Name, lines[len(lines)-1])
		}
	}
	fmt.Fprintf(w, "\n%-12s %-20s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "min", "median", "max", "range", "iqr", "bound")
	for i := range run {
		for _, d := range endToEnd {
			xs := vals[run[i].Name+" "+d.Name]
			if len(xs) == 0 {
				continue
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			q1, q2, q3 := quartiles(xs)
			rng, iqr := (sorted[len(sorted)-1]-sorted[0])/q2, (q3-q1)/q2
			verdict := ""
			if iqr > d.Bound && d.Name != mSetup {
				verdict = "  OVER"
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-20s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s\n",
				run[i].Name, d.Name, sorted[0], q2, sorted[len(sorted)-1], rng, iqr, d.Bound, verdict)
		}
	}
	return code
}
