package main

import (
	"time"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/serve"
)

// Fixed configuration. It is the same on a parent commit and on a
// change, is printed with every run, and is reached by no flag: the only
// things a run varies are the workload, the input seed and the window.
const (
	cfgWorkers    = 2
	cfgShards     = 1
	cfgMaxBatch   = 64
	cfgFlushEvery = 2 * time.Millisecond
	cfgServerSeed = 1 // the program's own seed; -seed reaches input generation only

	cfgQueueDepth  = 1 << 16
	cfgMaxInFlight = 1 << 20

	defaultSeed    = 1
	defaultSeconds = 30

	// A run builds its workload from scratch this many times (see setUp);
	// setup_s is the median, the last build is the one measured.
	setupMinReps  = 3
	setupMaxReps  = 15
	setupMinTotal = time.Second
)

func cfgMachine() machine.Config { return machine.Opteron16() }

// serveConfig is the server every serve workload runs against. Tracing
// sets Obs and Invariants; nothing else differs between the two runs.
func serveConfig(pol string) serve.Config {
	return serve.Config{
		Workers:    cfgWorkers,
		Machine:    cfgMachine(),
		Policy:     pol,
		Seed:       cfgServerSeed,
		Shards:     cfgShards,
		MaxBatch:   cfgMaxBatch,
		FlushEvery: cfgFlushEvery,
		// Admission never refuses: when the host stalls for 20 ms the
		// default bounds (128 queued tasks a tenant, 512 in flight) answer
		// 429 to however many jobs that stall caught, a count no two runs
		// share. With the bounds out of reach the same stall shows as
		// latency and as jobs past the limit, and no operation fails.
		QueueDepth:  cfgQueueDepth,
		MaxInFlight: cfgMaxInFlight,
	}
}

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen (per-layer metrics have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// End-to-end metrics. Every workload reports every one of them; what the
// "operation" and the "unit of work" are on each workload is in the
// workload table below and in README.md.
const (
	mSetup   = "setup_s"
	mOp      = "op_ms"
	mGoodput = "goodput_per_s"
	mEnergy  = "energy_mj_per_unit"
	mAllocs  = "allocs_per_unit"
)

// A bound has to hold on the noisiest workload and through the host's
// slow phases, and the contract caps it at 0.25; README.md has the
// measured spreads they were set from.
var endToEnd = []metricDef{
	{mSetup, "s", "lower", 0.25},
	{mOp, "ms", "lower", 0.25},
	{mGoodput, "1/s", "higher", 0.25},
	{mEnergy, "mJ", "lower", 0.25},
	{mAllocs, "count", "lower", 0.15},
}

// Per-layer metrics, from the traced run. A layer the workload does not
// exercise reports 0 for its metrics.
var perLayer = []metricDef{
	// serve ingest: http.go, decode.go, encode.go
	{Name: "serve.ingest_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.ingest_batch_us_per_job", Unit: "us", Better: "lower"},
	{Name: "serve.http_allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.submit_allocs_per_job", Unit: "count", Better: "lower"},
	// serve route / admit / batch: router.go, shard.go
	{Name: "serve.submit_us_per_job", Unit: "us", Better: "lower"},
	{Name: "serve.flush_self_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.tasks_per_batch", Unit: "count", Better: "higher"},
	{Name: "serve.batches_per_s", Unit: "1/s", Better: "lower"},
	{Name: "serve.batcher_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.timeout_share", Unit: "ratio", Better: "lower"},
	// rt
	{Name: "rt.batch_wall_mean_us", Unit: "us", Better: "lower"},
	{Name: "rt.nonpayload_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.nonpayload_us_per_task", Unit: "us", Better: "lower"},
	{Name: "rt.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "rt.search_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.dry_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.halt_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.residual_s", Unit: "s", Better: "lower"},
	{Name: "rt.steals_per_batch", Unit: "count", Better: "lower"},
	{Name: "rt.allocs_per_batch", Unit: "count", Better: "lower"},
	// rt fine-grain probes: informational, they do not repeat (README.md)
	{Name: "rt.fine256_us_per_task_cilk", Unit: "us", Better: "lower"},
	{Name: "rt.fine256_us_per_task_eewa", Unit: "us", Better: "lower"},
	{Name: "rt.fine16_batch_us_cilk", Unit: "us", Better: "lower"},
	{Name: "rt.fine16_batch_us_eewa", Unit: "us", Better: "lower"},
	{Name: "rt.eewa_over_cilk_fine", Unit: "ratio", Better: "lower"},
	{Name: "rt.eewa_over_cilk_iter", Unit: "ratio", Better: "lower"},
	// policy / core / cctable / profile
	{Name: "policy.plan_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "policy.plan_cached_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "cctable.search_steps", Unit: "count", Better: "lower"},
	{Name: "policy.adjuster_host_share", Unit: "ratio", Better: "lower"},
	{Name: "policy.census_mode_share", Unit: "ratio", Better: "higher"},
	{Name: "policy.dvfs_transitions_per_batch", Unit: "count", Better: "lower"},
	// sched / event / task / machine
	{Name: "sched.host_ns_per_task_cilk", Unit: "ns", Better: "lower"},
	{Name: "sched.host_ns_per_task_cilk-d", Unit: "ns", Better: "lower"},
	{Name: "sched.host_ns_per_task_wats", Unit: "ns", Better: "lower"},
	{Name: "sched.host_ns_per_task_eewa", Unit: "ns", Better: "lower"},
	{Name: "sched.deep_host_ns_per_task_cilk", Unit: "ns", Better: "lower"},
	{Name: "sched.deep_host_ns_per_task_eewa", Unit: "ns", Better: "lower"},
	{Name: "sched.steals_per_task", Unit: "count", Better: "lower"},
	{Name: "sched.probes_per_task", Unit: "count", Better: "lower"},
	{Name: "sched.migrated_share", Unit: "ratio", Better: "lower"},
	{Name: "event.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.energy_saving_pct", Unit: "%", Better: "higher"},
	{Name: "sim.slowdown_pct", Unit: "%", Better: "lower"},
	// kernels: a control. If these move between two commits the host
	// drifted and the comparison is void.
	{Name: "kernels.us_per_task_sha1_256", Unit: "us", Better: "lower"},
	{Name: "kernels.us_per_task_sha1_4k", Unit: "us", Better: "lower"},
	{Name: "kernels.us_per_task_lzw_4k", Unit: "us", Better: "lower"},
	{Name: "kernels.us_per_task_dmc_4k", Unit: "us", Better: "lower"},
	{Name: "kernels.us_per_task_je_4k", Unit: "us", Better: "lower"},
	{Name: "kernels.share_of_job", Unit: "ratio", Better: "higher"},
	// traffic + the harness itself
	{Name: "traffic.generate_s", Unit: "s", Better: "lower"},
	{Name: "gen.late_share", Unit: "ratio", Better: "lower"},
	{Name: "gen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "gen.ns_per_job", Unit: "ns", Better: "lower"},
	// obs
	{Name: "obs.overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadDef is one row of the workload table.
type workloadDef struct {
	Name string
	Why  string
	// Op is what op_ms times; Unit is what goodput, energy
	// and allocations are counted per.
	Op, Unit string
	run      func(*runCtx) (*outcome, error)
}

var workloads = []workloadDef{
	{
		Name: "serve-mixed",
		Why:  "open loop, 120 jobs/s of sha1/lzw/dmc/je tasks under eewa with an offline profile: kernels and the adjuster's plan decide latency and energy, ingest is about 1%",
		Op:   "job, from due time to 200", Unit: "job answered 200 within 50 ms",
		run: func(c *runCtx) (*outcome, error) { return runServeOpen(c, serveMixed) },
	},
	{
		Name: "serve-batch",
		Why:  "closed loop, one client posting 64-job batches back to back under cilk: per-job decode, admission, pooling and rt per-task cost are the whole bill; kernels and planning do nothing",
		Op:   "one 64-job batch request, from sent to response", Unit: "job answered 200",
		run: runServeBatch,
	},
	{
		Name: "rt-iter",
		Why:  "the library user's loop: rt.RunBatch on one fixed batch of 64 sha1/4KiB tasks under cilk, nothing above it, so spawn, poll and barrier cost show without HTTP",
		Op:   "one RunBatch call", Unit: "task executed",
		run: runRTIter,
	},
	{
		Name: "sim-table2",
		Why:  "the researcher's use: sched.Run over the 7 Table II benchmarks x 4 policies x 3 seeds; batches are shallow, so per-batch planning is a visible share of host time",
		Op:   "one sched.Run call, one of the 84 cells", Unit: "simulated task",
		run: runSimTable2,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// simPolicies is the order the sim workloads run the policies in.
var simPolicies = policy.IDs()
