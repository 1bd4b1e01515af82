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
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported types. The facade aliases rather than wraps so that
// advanced callers can drop to the internal packages without
// conversion.
type (
	// MachineConfig describes the simulated hardware: cores, frequency
	// ladder, power model, package topology.
	MachineConfig = machine.Config
	// FreqLadder is the descending list of core frequencies (GHz).
	FreqLadder = machine.FreqLadder
	// Workload is a named sequence of task batches.
	Workload = task.Workload
	// ClassSpec declares one task class of a synthetic workload.
	ClassSpec = task.ClassSpec
	// Task is one simulated unit of work.
	Task = task.Task
	// Result is a simulation outcome (makespan, energy, censuses …).
	Result = sched.Result
	// Params tunes the simulation engine.
	Params = sched.Params
	// Benchmark is one paper benchmark (Table II).
	Benchmark = workloads.Benchmark
	// LiveConfig configures the goroutine runtime.
	LiveConfig = rt.Config
	// LiveTask is a real payload for the goroutine runtime.
	LiveTask = rt.Task
	// LiveRuntime executes real payloads with emulated DVFS.
	LiveRuntime = rt.Runtime
	// LiveBatchStats summarizes one live batch.
	LiveBatchStats = rt.BatchStats
	// Metrics is the observability registry both runtimes report into:
	// counters, gauges and histograms exportable as Prometheus text or
	// JSON (internal/obs). Set it as Params.Obs or LiveConfig.Obs.
	Metrics = obs.Registry
	// LatencyHistogram is a lock-free log-bucketed histogram with
	// quantile estimation (≤12.5 % relative error); both runtimes use
	// it for task and request latencies. Fetch registered children via
	// (*Metrics).At(name, labelValues...).
	LatencyHistogram = obs.LogHistogram
	// ServeLatencySummary is the end-of-run p50/p95/p99 digest the job
	// service computes from its request-span histograms
	// ((*JobServer).LatencySummary).
	ServeLatencySummary = serve.LatencySummary
	// TraceRecorder collects per-core execution, steal and idle spans
	// and renders them as a Gantt chart, CSV or Perfetto-compatible
	// trace-event JSON (internal/trace). Set it as Params.Recorder.
	TraceRecorder = trace.Recorder
	// ServeConfig configures the job-submission service (internal/serve):
	// a backpressured HTTP front end that batches submissions into
	// iterations and executes them on the live runtime.
	ServeConfig = serve.Config
	// JobServer is the long-running job-submission service. Mount
	// (*JobServer).Handler on an http.Server and call Drain on SIGTERM.
	JobServer = serve.Server
	// JobRequest is one HTTP job submission (function, task count,
	// payload size, optional deadline and workload hint).
	JobRequest = serve.JobRequest
	// JobResult is the synchronous response to a completed job.
	JobResult = serve.JobResult
	// ServeStats is a point-in-time snapshot of the service's admission
	// and execution counters (cluster totals).
	ServeStats = serve.Stats
	// ServeShardStats is one runtime shard's slice of the routed
	// cluster: admission counters, plan classes and energy account
	// ((*JobServer).ShardStats, the /v1/shards endpoint).
	ServeShardStats = serve.ShardStats
	// ServeEnergyRollup is the cluster-wide energy account: per-shard
	// attributed + overhead joules summing to the cluster total
	// ((*JobServer).EnergyRollup).
	ServeEnergyRollup = serve.EnergyRollup
	// ClusterGrid declares a sweep: benchmark × policy × cores × seed,
	// with the cluster topology axes (shard count × ladder split ×
	// routing policy) defaulting to one shard; run it with ClusterSweep.
	ClusterGrid = sweep.Grid
	// ClusterCell is one deterministic sweep cell.
	ClusterCell = sweep.Cell
)

// Policy names accepted by Simulate, NewPolicy and every CLI's -policy
// flag. These are the canonical identifiers owned by internal/policy —
// the live runtime's rt.ParsePolicy accepts the same set.
const (
	// PolicyCilk is classic random work stealing at full frequency.
	PolicyCilk = policy.IDCilk
	// PolicyCilkD is Cilk with idle cores down-clocked to the lowest
	// frequency.
	PolicyCilkD = policy.IDCilkD
	// PolicyEEWA is the paper's full scheduler.
	PolicyEEWA = policy.IDEEWA
	// PolicyWATS is workload-aware stealing on a fixed asymmetric
	// frequency configuration (the paper's [9], its Fig. 7 baseline):
	// class profiling and preference stealing like EEWA, but the
	// frequencies are frozen at policy.DefaultWATSLevels — no per-batch
	// adjuster.
	PolicyWATS = policy.IDWATS
)

// PolicyNames returns the canonical policy identifiers in presentation
// order (cilk, cilk-d, wats, eewa).
func PolicyNames() []string { return policy.IDs() }

// Opteron16 returns the paper's evaluation platform: 16 cores in four
// packages, 2.5/1.8/1.3/0.8 GHz per-core DVFS.
func Opteron16() MachineConfig { return machine.Opteron16() }

// GenericMachine returns an Opteron-like machine with an arbitrary
// core count (the Fig. 9 scalability sweep uses 4–16).
func GenericMachine(cores int) MachineConfig { return machine.Generic(cores) }

// Benchmarks returns the seven paper benchmarks of Table II.
func Benchmarks() []Benchmark { return workloads.All() }

// BenchmarkByName looks up one of the Table II benchmarks by name
// (bwc, bzip2, dmc, je, lzw, md5, sha1).
func BenchmarkByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// MustBenchmark is BenchmarkByName for known-good names; it panics on
// error.
func MustBenchmark(name string) Benchmark {
	b, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// GenerateWorkload builds a deterministic synthetic workload.
func GenerateWorkload(name string, batches int, specs []ClassSpec, seed uint64) (*Workload, error) {
	return task.Generate(name, batches, specs, seed)
}

// NewPolicy constructs a scheduling policy by name for cfg. The same
// policy value drives both the simulator (Simulate) and the live
// runtime (LiveConfig.Impl) — decisions live in internal/policy, the
// engines only execute them.
func NewPolicy(name string, cfg MachineConfig) (policy.Policy, error) {
	return policy.New(name, cfg)
}

// Simulate runs workload w on machine cfg under the named policy with
// default parameters.
func Simulate(cfg MachineConfig, w *Workload, policy string) (*Result, error) {
	return SimulateWithParams(cfg, w, policy, Params{})
}

// SimulateWithParams is Simulate with explicit engine parameters.
func SimulateWithParams(cfg MachineConfig, w *Workload, policy string, params Params) (*Result, error) {
	p, err := NewPolicy(policy, cfg)
	if err != nil {
		return nil, err
	}
	return sched.Run(cfg, w, p, params)
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

// Slowdown returns EEWA's makespan relative to Cilk minus one
// (positive = slower).
func (c *Comparison) Slowdown() float64 {
	return c.EEWA.Makespan/c.Cilk.Makespan - 1
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

// Live-runtime policy selectors. All four paper policies run live;
// their String() forms are the canonical names above.
const (
	LivePolicyCilk  = rt.PolicyCilk
	LivePolicyCilkD = rt.PolicyCilkD
	LivePolicyWATS  = rt.PolicyWATS
	LivePolicyEEWA  = rt.PolicyEEWA
)

// ParseLivePolicy resolves a canonical policy name (PolicyCilk …) to
// the live runtime's selector.
func ParseLivePolicy(name string) (rt.Policy, error) { return rt.ParsePolicy(name) }

// NewServer builds the job-submission service: per-tenant bounded
// admission queues with 429/Retry-After backpressure, interval
// batching onto the live runtime, per-request deadlines and graceful
// drain. With ServeConfig.Shards > 1 it is a routing tier over N
// runtime shards — class-aware placement, per-shard drain, cluster
// energy roll-ups. See cmd/eewa-serve for the standalone binary.
func NewServer(cfg ServeConfig) (*JobServer, error) { return serve.New(cfg) }

// ServeFuncs returns the function names accepted by JobRequest.Func
// (the Table II kernels runnable as service payloads).
func ServeFuncs() []string { return serve.Funcs() }

// ServeRoutingPolicies returns the placement policies a routed
// JobServer accepts as ServeConfig.Routing ("class", "rr", "least").
func ServeRoutingPolicies() []string { return serve.RoutingPolicies() }

// ClusterSweep runs a sweep — the paper's benchmark × policy × cores
// grid, over shard count × ladder split × routing policy — on
// `workers` goroutines, returning per-cell results that are
// byte-identical for every worker count. See cmd/eewa-sweep.
func ClusterSweep(g ClusterGrid, workers int) ([]ClusterCell, error) {
	return sweep.RunCells(g, workers)
}

// NewMetrics builds an observability registry. Pass it as Params.Obs
// (simulator) or LiveConfig.Obs (live runtime); export it with
// (*Metrics).WritePrometheus, (*Metrics).WriteJSON or ServeMetrics.
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
