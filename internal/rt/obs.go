package rt

import (
	"sort"
	"strconv"

	"repro/internal/obs"
)

// rtObs bundles the live runtime's metric handles. Every handle is nil
// when the registry is nil, and every method on a nil handle is a
// no-op, so the instrumented sites cost one pointer check when
// observability is off. Everything but the per-class execution
// histogram is observed at batch boundaries, from the counters the
// workers leave behind.
type rtObs struct {
	reg   *obs.Registry
	names []string // observeBatch's sorted class names, reused

	batches   *obs.Counter
	tasks     *obs.Counter
	steals    *obs.Counter
	wallSecs  *obs.Counter
	batchSecs *obs.Histogram

	busySecs    *obs.Counter
	idleSecs    *obs.Counter
	barrierSecs *obs.Counter

	poolDepth *obs.Histogram
	dvfs      *obs.Counter
	energy    *obs.Counter
	residual  *obs.Counter

	execSecs       *obs.LogHistogramVec // per-class execution latency
	classBusy      *obs.CounterVec
	classEnergy    *obs.CounterVec
	overheadEnergy *obs.Counter

	census []*obs.Gauge // by frequency level

	adjInv     *obs.Counter
	adjHost    *obs.Counter
	planHits   *obs.Counter
	planMisses *obs.Counter
	violations *obs.CounterVec
}

func newRTObs(reg *obs.Registry, levels int) rtObs {
	o := rtObs{
		reg:     reg,
		batches: reg.Counter("eewa_rt_batches_total", "Batches executed by the live runtime."),
		tasks:   reg.Counter("eewa_rt_tasks_total", "Tasks executed by the live runtime."),
		steals:  reg.Counter("eewa_rt_steals_total", "Non-local task acquisitions in the live runtime."),
		wallSecs: reg.Counter("eewa_rt_wall_seconds_total",
			"Wall-clock seconds spent inside RunBatch."),
		batchSecs: reg.Histogram("eewa_rt_batch_seconds",
			"Per-batch wall-clock duration in seconds.", obs.ExpBuckets(1e-3, 2, 14)),
		busySecs: reg.Counter("eewa_rt_worker_busy_seconds_total",
			"Worker-seconds spent executing task payloads (duty-cycle stretched)."),
		idleSecs: reg.Counter("eewa_rt_worker_idle_seconds_total",
			"Worker-seconds spent searching for work (probe/steal/sleep)."),
		barrierSecs: reg.Counter("eewa_rt_worker_barrier_seconds_total",
			"Worker-seconds spent waiting at the batch barrier after running dry."),
		poolDepth: reg.Histogram("eewa_rt_pool_depth",
			"Tasks placed into each worker's pools at batch start.", obs.ExpBuckets(1, 2, 12)),
		dvfs: reg.Counter("eewa_rt_dvfs_transitions_total",
			"Emulated frequency-level changes applied to workers."),
		energy: reg.Counter("eewa_rt_energy_joules_total",
			"Modeled energy consumed by the live runtime (joules)."),
		residual: reg.Counter("eewa_rt_energy_residual_seconds_total",
			"Worker-seconds the energy accounting clipped because modeled states overran the measured wall (should stay ~0)."),
		execSecs: reg.LogHistogramVec("eewa_rt_task_exec_seconds",
			"Per-task execution latency (duty-cycle stretched), by task class.", "class"),
		classBusy: reg.CounterVec("eewa_rt_class_busy_seconds_total",
			"Worker-seconds executing payloads, attributed by task class.", "class"),
		classEnergy: reg.CounterVec("eewa_rt_energy_class_joules_total",
			"Busy-state energy attributed by task class (joules).", "class"),
		overheadEnergy: reg.Counter("eewa_rt_energy_overhead_joules_total",
			"Batch energy not attributable to any task class: work search, dry spin, barrier halt and base draw (joules)."),
		adjInv: reg.Counter("eewa_rt_adjuster_invocations_total",
			"Invocations of the workload-aware frequency adjuster."),
		adjHost: reg.Counter("eewa_rt_adjuster_host_seconds_total",
			"Host wall time spent inside the frequency adjuster."),
		planHits: reg.Counter("eewa_plan_cache_hits_total",
			"Adjusted plans served from the memoized tuple-search cache."),
		planMisses: reg.Counter("eewa_plan_cache_misses_total",
			"Adjusted plans that ran the backtracking tuple search."),
	}
	if reg != nil {
		censusVec := reg.GaugeVec("eewa_rt_census_workers",
			"Workers currently clocked at each frequency level.", "level")
		o.census = make([]*obs.Gauge, levels)
		for j := range o.census {
			o.census[j] = censusVec.With(strconv.Itoa(j))
		}
		o.violations = reg.CounterVec("eewa_rt_invariant_violations_total",
			"Runtime invariant violations detected by internal/check, by invariant.", "invariant")
	}
	return o
}

// execHist returns the per-class execution-latency histogram handle, or
// nil when the registry is disabled. Placement fetches it once per class
// per batch (paying the family mutex there); workers then Observe
// lock-free per task.
func (o *rtObs) execHist(class string) *obs.LogHistogram {
	if o.reg == nil {
		return nil
	}
	return o.execSecs.With(class)
}

// violation counts one invariant violation (no-op without a registry).
func (o *rtObs) violation(invariant string) {
	o.violations.With(invariant).Inc()
}

// observeBatch records one completed batch. depths holds the number of
// tasks placed on each worker at batch start (nil when the registry is
// disabled).
func (o *rtObs) observeBatch(bs BatchStats, busy, idle, barrier float64, depths []int) {
	if o.reg == nil {
		return
	}
	o.batches.Inc()
	o.tasks.Add(float64(bs.Tasks))
	o.steals.Add(float64(bs.Steals))
	o.wallSecs.Add(bs.Wall.Seconds())
	o.batchSecs.Observe(bs.Wall.Seconds())
	o.busySecs.Add(busy)
	o.idleSecs.Add(idle)
	o.barrierSecs.Add(barrier)
	o.energy.Add(bs.Energy)
	o.residual.Add(bs.Residual)
	if len(bs.Classes) > 0 {
		attributed := 0.0
		// Sorted iteration keeps first-registration child order (and so
		// the Prometheus export) deterministic across runs.
		o.names = o.names[:0]
		for name := range bs.Classes {
			o.names = append(o.names, name)
		}
		sort.Strings(o.names)
		for _, name := range o.names {
			cs := bs.Classes[name]
			o.classBusy.With(name).Add(cs.BusySecs)
			o.classEnergy.With(name).Add(cs.EnergyJ)
			attributed += cs.EnergyJ
		}
		if over := bs.Energy - attributed; over > 0 {
			o.overheadEnergy.Add(over)
		}
	} else {
		o.overheadEnergy.Add(bs.Energy)
	}
	for _, d := range depths {
		o.poolDepth.Observe(float64(d))
	}
	for j, n := range bs.Census {
		if j < len(o.census) {
			o.census[j].Set(float64(n))
		}
	}
}
