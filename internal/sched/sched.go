// Package sched is the discrete-event execution engine for the
// scheduling policies of internal/policy (Cilk, Cilk-D, WATS, EEWA).
// All decision logic — per-batch planning, task placement, steal
// preference order, out-of-work behaviour — lives in internal/policy
// and is shared verbatim with the live goroutine runtime
// (internal/rt); this package only executes those decisions on a
// simulated machine.
//
// The engine executes one task.Workload on one machine.Machine under
// one Policy, producing a Result with makespan, wall energy, per-batch
// frequency censuses (Fig. 8), steal statistics and adjuster overhead
// (Table III). Simulations are deterministic for a given Params.Seed.
package sched

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
)

// The simulated costs of the engine's model: fixed, so a simulation is
// a function of its machine, workload, policy and Params alone.
const (
	// probeCost is the simulated cost of checking one task pool during
	// work search (seconds).
	probeCost = 0.2e-6
	// stealCost is the extra cost of a successful remote steal
	// (seconds) — CAS plus cache-line transfer.
	stealCost = 1.0e-6
	// adjusterCharge is the simulated per-batch cost of running the
	// frequency adjuster (profiling consolidation + CC table +
	// Algorithm 1). The *measured host* cost of our implementation is
	// reported separately in Result.AdjusterHostTime; the simulated
	// charge is fixed for determinism and set conservatively above the
	// measured values (Table III reports both).
	adjusterCharge = 2.0e-3
)

// Params are the per-run inputs of the engine besides the machine, the
// workload and the policy. The zero value is the default: Run treats
// Seed 0 as 1.
type Params struct {
	// Seed derives the per-core victim-selection streams, the engine's
	// only random draws (placement is IndexedPlacer's deterministic
	// round-robin).
	Seed uint64
	// Recorder, when non-nil, receives one span per executed task
	// (internal/trace.Recorder satisfies it). If it also implements
	// SpanRecorder, the engine additionally reports steal lead-in and
	// terminal idle intervals.
	Recorder Recorder
	// Obs, when non-nil, receives the engine's metrics: steal traffic
	// per victim c-group, probe misses, adjuster invocations and search
	// depth, per-batch frequency-level residency and energy (see
	// internal/obs). A nil registry costs one pointer check per metric
	// site and allocates nothing.
	Obs *obs.Registry
}

// Recorder receives per-task execution spans for Gantt/CSV rendering.
type Recorder interface {
	Record(core int, start, end float64, label string, level int)
}

// SpanRecorder extends Recorder with the intervals where time goes when
// a core is not executing: the probe/steal lead-in before a stolen task
// and the terminal idle wait at the batch barrier.
// internal/trace.Recorder satisfies it.
type SpanRecorder interface {
	Recorder
	RecordSteal(core int, start, end float64, victimGroup int)
	RecordIdle(core int, start, end float64)
}

// Result is everything a simulation run reports.
type Result struct {
	Policy   string
	Workload string

	// Makespan is total simulated execution time (seconds).
	Makespan float64
	// Energy is whole-machine energy (joules): cores + base draw.
	Energy float64
	// CoreEnergy excludes the base draw.
	CoreEnergy float64

	// BatchTimes are per-batch durations; BatchTimes[0] is the ideal
	// iteration time T.
	BatchTimes []float64
	// BatchCensus[bi][j] is the number of cores at frequency level j
	// during batch bi — the paper's Fig. 8.
	BatchCensus [][]int

	// Steals counts successful remote steals; Probes counts pool
	// inspections; Migrated counts tasks executed outside their
	// class's allocated c-group.
	Steals   int
	Probes   int
	Migrated int

	// AdjusterSimTime is the total simulated adjuster charge;
	// AdjusterHostTime is the measured host time of the actual
	// CC-table + backtracking implementation (Table III).
	AdjusterSimTime  float64
	AdjusterHostTime time.Duration

	// BusyTime/SpinTime/HaltTime are core-seconds summed over cores.
	BusyTime, SpinTime, HaltTime float64

	// DVFSTransitions counts frequency switches.
	DVFSTransitions int

	// MemoryBound reports whether the profiler classified the
	// application as memory-bound (EEWA then falls back to classic
	// stealing, paper §IV-D).
	MemoryBound bool

	// Profile is the final batch's workload profile with the measured
	// ideal time — reusable as an offline profile (EEWA.Offline) per
	// the paper's §IV-D.
	Profile *profile.Snapshot
}

// Utilization returns busy core-seconds divided by total core-seconds —
// the headroom EEWA converts into energy savings.
func (r *Result) Utilization() float64 {
	denom := r.BusyTime + r.SpinTime + r.HaltTime
	if denom == 0 {
		return 0
	}
	return r.BusyTime / denom
}

// String summarizes the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%-8s %-8s makespan=%.4fs energy=%.1fJ steals=%d util=%.2f",
		r.Policy, r.Workload, r.Makespan, r.Energy, r.Steals, r.Utilization())
}
