package serve

import (
	"strconv"

	"repro/internal/obs"
)

// serveObs bundles the service's metric handles under the eewa_serve_*
// namespace. Like the runtime's rtObs, every handle is nil when the
// registry is nil and every method on a nil handle no-ops.
type serveObs struct {
	// admittedTenant counts admissions by tenant — the per-cohort
	// admission view the traffic harness reads next to queueDepth and
	// tenantEnergy; their sum is the cluster's admissions.
	admittedTenant *obs.CounterVec
	rejected       *obs.CounterVec // by reason
	timeouts       *obs.Counter
	completed      *obs.Counter
	// cancelled counts job cancellations by reason (deadline,
	// disconnect, expired_at_admission), making client disconnects
	// visible and distinguishable from deadline drops.
	cancelled *obs.CounterVec

	// queueDepth children are delta-maintained by every shard's
	// admission queue (cluster totals, exactly the values the old
	// central aggregator published).
	queueDepth *obs.GaugeVec // by tenant: queued tasks
	inflight   *obs.Gauge    // admitted-but-unfinished tasks

	// Batch count and wall time are the runtime's eewa_rt_batches_total
	// and eewa_rt_batch_seconds, in the same registry.
	batchTasks *obs.LogHistogram

	tasksRun       *obs.Counter
	tasksCancelled *obs.Counter

	// Request-span phase distributions, keyed by task class (the kernel
	// function) and tenant. Log-bucketed: one family covers µs queue
	// waits and multi-second saturated batches alike.
	spanQueue   *obs.LogHistogramVec
	spanBatch   *obs.LogHistogramVec
	spanExec    *obs.LogHistogramVec
	spanBarrier *obs.LogHistogramVec
	spanE2E     *obs.LogHistogramVec

	// tenantEnergy is the per-tenant share of the runtime's class-level
	// busy energy, split pro rata by executed tasks.
	tenantEnergy *obs.CounterVec
}

// routerObs bundles the routing tier's extra metric handles under the
// eewa_serve_router_* namespace. They only exist with more than one
// shard — a single-shard server exports exactly the pre-router family
// set — and every method is safe on a nil receiver, so shard code
// calls them unconditionally.
type routerObs struct {
	routedV   *obs.CounterVec // by shard: jobs placed
	spillV    *obs.Counter    // jobs placed off their preferred shard
	inflightV *obs.GaugeVec   // by shard: queued + running tasks
	drainingV *obs.GaugeVec   // by shard: 1 while the shard drains
	energyV   *obs.CounterVec // by shard: modeled joules
}

func newRouterObs(reg *obs.Registry) *routerObs {
	return &routerObs{
		routedV: reg.CounterVec("eewa_serve_router_routed_total",
			"Jobs the routing tier placed, by destination shard.", "shard"),
		spillV: reg.Counter("eewa_serve_router_spillover_total",
			"Jobs that spilled past their preferred shard to a later candidate."),
		inflightV: reg.GaugeVec("eewa_serve_router_shard_inflight_tasks",
			"Admitted tasks not yet finished on each shard.", "shard"),
		drainingV: reg.GaugeVec("eewa_serve_router_shard_draining",
			"1 while the shard is draining, else 0.", "shard"),
		energyV: reg.CounterVec("eewa_serve_router_shard_energy_joules_total",
			"Modeled energy accumulated by each shard's runtime (joules).", "shard"),
	}
}

// shardLabel formats a shard index as a metric label.
func shardLabel(idx int) string { return strconv.Itoa(idx) }

func (ro *routerObs) routed(idx int) {
	if ro == nil {
		return
	}
	ro.routedV.With(shardLabel(idx)).Inc()
}

func (ro *routerObs) spilled() {
	if ro == nil {
		return
	}
	ro.spillV.Inc()
}

func (ro *routerObs) shardInflight(idx, n int) {
	if ro == nil {
		return
	}
	ro.inflightV.With(shardLabel(idx)).Set(float64(n))
}

func (ro *routerObs) shardDraining(idx int, d bool) {
	if ro == nil {
		return
	}
	v := 0.0
	if d {
		v = 1
	}
	ro.drainingV.With(shardLabel(idx)).Set(v)
}

func (ro *routerObs) shardEnergy(idx int, joules float64) {
	if ro == nil {
		return
	}
	ro.energyV.With(shardLabel(idx)).Add(joules)
}

func newServeObs(reg *obs.Registry) serveObs {
	return serveObs{
		admittedTenant: reg.CounterVec("eewa_serve_admitted_tenant_total",
			"Jobs admitted into the batching queue, by tenant.", "tenant"),
		rejected: reg.CounterVec("eewa_serve_rejected_total",
			"Jobs refused at admission, by reason (tenant_queue_full, inflight_budget, draining, invalid).",
			"reason"),
		cancelled: reg.CounterVec("eewa_serve_cancelled_jobs_total",
			"Job cancellations by reason: deadline (handler-side expiry), disconnect (client hung up), expired_at_admission (504 fast-fail).",
			"reason"),
		timeouts: reg.Counter("eewa_serve_timeout_total",
			"Jobs whose deadline expired before all tasks ran."),
		completed: reg.Counter("eewa_serve_completed_total",
			"Jobs that completed every task."),
		queueDepth: reg.GaugeVec("eewa_serve_queue_depth",
			"Queued (admitted, not yet batched) tasks per tenant.", "tenant"),
		inflight: reg.Gauge("eewa_serve_inflight_tasks",
			"Admitted tasks not yet finished (queued + running)."),
		batchTasks: reg.LogHistogram("eewa_serve_batch_tasks",
			"Tasks packed into each iteration."),
		tasksRun: reg.Counter("eewa_serve_tasks_run_total",
			"Task payloads executed."),
		tasksCancelled: reg.Counter("eewa_serve_tasks_cancelled_total",
			"Tasks withdrawn mid-batch through the cancellation hook."),
		spanQueue: reg.LogHistogramVec("eewa_serve_queue_wait_seconds",
			"Request span, queue phase: admission to batch formation.", "class", "tenant"),
		spanBatch: reg.LogHistogramVec("eewa_serve_batch_wait_seconds",
			"Request span, batch-wait phase: batch formation to the job's first payload start (planning, placement, pool wait).", "class", "tenant"),
		spanExec: reg.LogHistogramVec("eewa_serve_exec_seconds",
			"Request span, execute phase: the job's first payload start to its last payload end.", "class", "tenant"),
		spanBarrier: reg.LogHistogramVec("eewa_serve_span_barrier_seconds",
			"Request span, barrier phase: the job's last payload end to outcome delivery (the batch's slowest task, then the flush bookkeeping).", "class", "tenant"),
		spanE2E: reg.LogHistogramVec("eewa_serve_e2e_seconds",
			"Request span, end to end: admission to outcome delivery.", "class", "tenant"),
		tenantEnergy: reg.CounterVec("eewa_serve_energy_tenant_joules_total",
			"Busy-state energy attributed to each tenant's executed tasks (joules).", "tenant"),
	}
}
