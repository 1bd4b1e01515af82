// Package eewa reproduces "EEWA: Energy-Efficient Workload-Aware Task
// Scheduling in Multi-core Architectures" (Chen, Zheng, Guo, Huang —
// IPDPS 2014) as a self-contained Go library.
//
// EEWA couples two mechanisms for batch-structured parallel programs
// on DVFS-capable multi-cores:
//
//   - a workload-aware frequency adjuster that profiles task classes
//     online, builds the Core-Count (CC) table and backtracks
//     (Algorithm 1) to a per-core frequency configuration that finishes
//     the next batch in the same time at lower power, and
//   - a preference-based task-stealing scheduler (rob-the-weaker-first)
//     that keeps the resulting c-groups load-balanced.
//
// The package is a facade over the internal implementation:
//
//   - Simulate runs a workload on the deterministic discrete-event
//     machine model (internal/sched + internal/machine) under any of
//     the paper's four policies;
//   - NewRuntime executes real payloads on goroutines with emulated
//     DVFS (internal/rt);
//   - Benchmarks exposes the paper's Table II workloads, and the
//     experiment drivers in internal/experiments regenerate every
//     table and figure (see cmd/eewa-bench).
//
// Quick start:
//
//	cfg := eewa.Opteron16()
//	w := eewa.MustBenchmark("sha1").Workload(1)
//	cilk, _ := eewa.Simulate(cfg, w, eewa.PolicyCilk)
//	ee, _ := eewa.Simulate(cfg, w, eewa.PolicyEEWA)
//	fmt.Printf("energy saving: %.1f%%\n", 100*(1-ee.Energy/cilk.Energy))
package eewa

import (
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/workloads"
)

// Re-exported types. The facade aliases rather than wraps, so each
// name keeps the methods and fields of the type it names.
type (
	// MachineConfig describes the simulated hardware: cores, frequency
	// ladder, power model, package topology.
	MachineConfig = machine.Config
	// Workload is a named sequence of task batches.
	Workload = task.Workload
	// Result is a simulation outcome (makespan, energy, censuses …).
	Result = sched.Result
	// Benchmark is one paper benchmark (Table II).
	Benchmark = workloads.Benchmark
	// LiveConfig configures the goroutine runtime.
	LiveConfig = rt.Config
	// LivePolicy names the live runtime's scheduling policy
	// (LiveConfig.Policy): any name Simulate accepts, converted —
	// LivePolicy("eewa-memaware"). NewRuntime rejects an unknown one.
	LivePolicy = rt.Policy
	// LiveTask is a real payload for the goroutine runtime.
	LiveTask = rt.Task
	// LiveRuntime executes real payloads with emulated DVFS.
	LiveRuntime = rt.Runtime
	// Metrics is the observability registry the live runtime reports
	// into (LiveConfig.Obs): counters, gauges and histograms exportable
	// as Prometheus text or JSON (internal/obs).
	Metrics = obs.Registry
)

// The policy names Compare runs. Simulate and every CLI's -policy flag
// accept any of PolicyNames (wats too) and the EEWA variants
// (eewa-exhaustive, eewa-greedy, eewa-divisible, eewa-memaware,
// eewa-ignore), all owned by internal/policy; the live runtime takes
// the same names as a LivePolicy.
const (
	// PolicyCilk is classic random work stealing at full frequency.
	PolicyCilk = policy.IDCilk
	// PolicyCilkD is Cilk with idle cores down-clocked to the lowest
	// frequency.
	PolicyCilkD = policy.IDCilkD
	// PolicyEEWA is the paper's full scheduler.
	PolicyEEWA = policy.IDEEWA
)

// PolicyNames returns the canonical policy identifiers in presentation
// order (cilk, cilk-d, wats, eewa).
func PolicyNames() []string { return policy.IDs() }

// Opteron16 returns the paper's evaluation platform: 16 cores in four
// packages, 2.5/1.8/1.3/0.8 GHz per-core DVFS.
func Opteron16() MachineConfig { return machine.Opteron16() }

// Benchmarks returns the seven paper benchmarks of Table II.
func Benchmarks() []Benchmark { return workloads.All() }

// MustBenchmark looks up one of the Table II benchmarks by name (bwc,
// bzip2, dmc, je, lzw, md5, sha1), or the §IV-D memory-bound workload
// (membound); it panics on an unknown name.
func MustBenchmark(name string) Benchmark {
	b, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Simulate runs workload w on machine cfg under the named policy with
// the engine's default parameters.
func Simulate(cfg MachineConfig, w *Workload, name string) (*Result, error) {
	p, err := policy.New(name, cfg)
	if err != nil {
		return nil, err
	}
	return sched.Run(cfg, w, p, sched.Params{})
}

// Comparison is the outcome of running one workload under the three
// Fig. 6 policies.
type Comparison struct {
	Cilk, CilkD, EEWA *Result
}

// EnergySaving returns EEWA's whole-machine energy saving versus Cilk
// as a fraction (0.298 = 29.8 %).
func (c *Comparison) EnergySaving() float64 {
	return 1 - c.EEWA.Energy/c.Cilk.Energy
}

// Compare runs w under Cilk, Cilk-D and EEWA on cfg.
func Compare(cfg MachineConfig, w *Workload) (*Comparison, error) {
	out := &Comparison{}
	for _, pc := range []struct {
		name string
		dst  **Result
	}{
		{PolicyCilk, &out.Cilk},
		{PolicyCilkD, &out.CilkD},
		{PolicyEEWA, &out.EEWA},
	} {
		res, err := Simulate(cfg, w, pc.name)
		if err != nil {
			return nil, err
		}
		*pc.dst = res
	}
	return out, nil
}

// NewRuntime builds the live goroutine runtime with emulated DVFS.
func NewRuntime(cfg LiveConfig) (*LiveRuntime, error) { return rt.New(cfg) }

// NewMetrics builds an observability registry. Pass it as
// LiveConfig.Obs; export it with (*Metrics).WritePrometheus,
// (*Metrics).WriteJSON or ServeMetrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ServeMetrics starts an HTTP server exposing reg on /metrics
// (Prometheus text format), /debug/vars (JSON snapshot) and
// /debug/pprof. It returns the bound address (useful with ":0") and a
// shutdown function.
func ServeMetrics(addr string, reg *Metrics) (string, func() error, error) {
	a, stop, err := obs.Serve(addr, reg)
	if err != nil {
		return "", nil, err
	}
	return a.String(), stop, nil
}
