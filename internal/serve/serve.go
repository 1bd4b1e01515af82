// Package serve turns the live runtime (internal/rt) into a
// long-running, request-driven service: an HTTP/JSON front end that
// accepts job submissions, batches them into iterations, and executes
// them under any of the four policies of internal/policy.
//
// The paper's execution model is batch-synchronous: "programs launch
// tasks in batches ... and wait for all tasks to complete before the
// next batch". A serving workload arrives one request at a time, so
// this package supplies the missing admission layer:
//
//   - per-tenant bounded queues — a tenant can hold at most
//     Config.QueueDepth queued tasks; overflow is rejected immediately
//     with HTTP 429 and a Retry-After hint (backpressure, never
//     unbounded buffering);
//   - a per-shard in-flight budget (Config.MaxInFlight) across all
//     tenants, bounding queued + running tasks and therefore memory;
//   - a demand-driven batcher per shard: a request wakes it once its
//     jobs are admitted, so an idle shard runs them at once as one
//     rt.RunBatch iteration — exactly the batch boundary at which
//     EEWA's frequency adjuster plans — and a busy shard finds
//     everything that arrived while its batch ran waiting as the next
//     one, up to Config.MaxBatch tasks: batches grow with load, not
//     with a timer. Config.FlushEvery is the ceiling on a queued job's
//     wait, not the cadence;
//   - per-request deadlines: a job whose deadline passes while it is
//     still queued is dropped at batch formation (never started), and
//     tasks already placed into a batch are withdrawn through the
//     runtime's Task.Cancelled hook;
//   - graceful drain: Drain stops admission (503 for new submissions),
//     flushes every queued job into final batches, waits for the
//     barrier, and returns — no admitted task is lost or duplicated
//     (the internal/check task-conservation invariant is enforceable
//     via Config.Invariants).
//
// Since the routing-tier refactor the Server is a router over
// Config.Shards runtime shards. Each shard is the full pipeline above
// — its own runtime, frequency ladder, profile, batcher and energy
// account — and the router places each admitted job with the paper's
// class rule lifted to cluster scope: a class goes to the shard whose
// current plan has headroom for it, an unknown class to the shard with
// the fastest ladder, with backpressure-aware spillover across the
// remaining healthy shards. The default single-shard configuration is
// decision- and wire-identical to the pre-router server. See
// router.go for placement and DESIGN.md §11 for semantics.
//
// Everything observable is exported through internal/obs under the
// eewa_serve_* namespace alongside the runtime's eewa_rt_* metrics, so
// one scrape shows the queue and the machine it feeds. Families are
// cluster totals; the multi-shard extras live under
// eewa_serve_router_*.
package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/rt"
	"repro/internal/xrand"
)

// Config configures a Server.
type Config struct {
	// Workers is the number of runtime worker goroutines ("cores") per
	// shard.
	Workers int
	// Machine supplies the frequency ladder and power model (core count
	// is overridden by Workers). The zero value defaults to
	// machine.Opteron16(). With Shards > 1 every shard uses this machine
	// unless ShardMachines overrides it.
	Machine machine.Config
	// Policy is a scheduling-policy name policy.New accepts (cilk,
	// cilk-d, wats, eewa or an EEWA variant); an unknown one is New's
	// error. Empty defaults to eewa.
	Policy string
	// Offline, when non-nil, is an offline workload profile (paper
	// §IV-D) handed to an EEWA policy so the first batch already runs
	// downscaled. It is validated against the machine's ladder at New
	// time; an invalid snapshot is a construction error, never a silent
	// no-op. With Shards > 1 it applies to every shard unless
	// ShardOfflines overrides it.
	Offline *profile.Snapshot
	// Seed drives the runtime's victim selection, shard i's through
	// ShardSeed(Seed, i): shard 0 uses it verbatim (single-shard
	// parity).
	Seed uint64

	// Shards is the number of runtime shards behind the router
	// (default 1). Each shard has its own runtime, batcher, admission
	// bounds and energy account.
	Shards int
	// Routing picks the placement policy over shards: RouteClass
	// (default — the paper's class rule at cluster scope), RouteRR, or
	// RouteLeast. Irrelevant with one shard.
	Routing string
	// ShardMachines, when non-empty, gives each shard its own machine
	// (ladder heterogeneity — e.g. a tiered cluster where shard 0 keeps
	// the full ladder and later shards run truncated ones). Length must
	// equal Shards.
	ShardMachines []machine.Config
	// ShardOfflines, when non-empty, gives each shard its own offline
	// profile (nil entries mean "none"). Length must equal Shards.
	ShardOfflines []*profile.Snapshot

	// MaxBatch is the most tasks packed into one iteration (default
	// 64). A single job may not exceed it.
	MaxBatch int
	// FlushEvery is the ceiling on how long an admitted job waits for an
	// idle shard to start an iteration (default 25ms) — a ceiling, not a
	// cadence: every request wakes its shard's batcher once its jobs are
	// admitted, so batches form on arrival when the shard is idle and at
	// the end of the running batch when it is not. The ticker behind
	// this field only bounds the wait should a wake-up ever be missed.
	FlushEvery time.Duration
	// QueueDepth is the per-tenant, per-shard bound on queued tasks
	// (default 128).
	QueueDepth int
	// MaxInFlight is the per-shard bound on admitted-but-unfinished
	// tasks across all tenants (default 512).
	MaxInFlight int

	// Clock overrides the service's time source: admission timestamps,
	// deadline arithmetic in newJob, and the queued-expiry and
	// mid-batch-cancellation checks all read it. Nil means time.Now.
	// Trace replay (internal/traffic) injects a virtual clock here so
	// deadline outcomes are a function of the trace alone, not of host
	// scheduling. With a non-nil Clock the HTTP handler's wall-clock
	// early-504 timer is disabled — queued expiry is then decided only
	// at batch formation, in virtual time.
	Clock func() time.Time
	// ManualFlush disables the batcher: no batcher goroutine runs,
	// admission wakes nobody, and batches form only when Flush is called,
	// on the caller's goroutine. This is the lockstep discipline trace
	// replay uses for bit-exact outcome logs; Drain still flushes the
	// backlog.
	ManualFlush bool

	// Obs, when non-nil, receives the eewa_serve_* metrics and is also
	// wired into the runtime (eewa_rt_*). LatencySummary reads its
	// request-span families, so without it the summary is zero.
	Obs *obs.Registry
	// Invariants enables the runtime's internal/check batch invariants
	// (task conservation, energy identity, plan feasibility) and the
	// request-span account (queue + batch wait + exec + barrier == e2e).
	Invariants bool
}

func (c *Config) setDefaults() {
	if c.Policy == "" {
		c.Policy = policy.IDEEWA
	}
	if c.Machine.Cores == 0 && c.Machine.Freqs == nil {
		c.Machine = machine.Opteron16()
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Routing == "" {
		c.Routing = RouteClass
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 25 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 512
	}
}

// Stats is a point-in-time snapshot of the service counters, served at
// /v1/stats. Counts are cluster totals; per-shard slices are at
// /v1/shards.
type Stats struct {
	Policy    string `json:"policy"`
	Workers   int    `json:"workers"`
	Draining  bool   `json:"draining"`
	Queued    int    `json:"queued_tasks"`
	Inflight  int    `json:"inflight_tasks"`
	Admitted  uint64 `json:"admitted_jobs"`
	Completed uint64 `json:"completed_jobs"`
	Rejected  uint64 `json:"rejected_jobs"`
	Timeouts  uint64 `json:"timeout_jobs"`
	Batches   uint64 `json:"batches"`
	Tasks     uint64 `json:"tasks_run"`
	Cancelled uint64 `json:"tasks_cancelled"`
}

// Server is the job-submission service: the routing tier over the
// cluster's runtime shards. Build one with New, mount Handler on an
// http.Server, and call Drain before exiting.
type Server struct {
	cfg    Config
	shards []*shard
	so     *serveObs
	ro     *routerObs // nil with one shard: no router-only families
	stamps bool       // payloads stamp their spans: Obs or the span check reads them
	// checkSpans: every job's spans must sum to its end-to-end time. On
	// with invariants, and only on the wall clock (payload stamps are
	// wall time, not the service clock's).
	checkSpans bool

	mu       sync.Mutex
	rejected uint64 // jobs refused at admission (router-level counter)
	fastFail uint64 // jobs 504-fast-failed at admission (deadline already past)

	draining atomic.Bool // cluster-wide drain (Drain); shards drain individually too

	jobSeq  uint64
	rr      atomic.Uint64 // round-robin cursor for RouteRR
	jobPool sync.Pool     // *job — pooled submissions (see job.go)
	tenants tenantTable   // interned tenant strings for the fast decoder
	static  staticBodies  // precomputed canonical error responses (encode.go)
}

// New validates cfg, builds the shards and starts their batchers.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("serve: shards must be positive, got %d", cfg.Shards)
	}
	if !slices.Contains(RoutingPolicies(), cfg.Routing) {
		return nil, fmt.Errorf("serve: unknown routing policy %q (want one of %v)", cfg.Routing, RoutingPolicies())
	}
	if len(cfg.ShardMachines) != 0 && len(cfg.ShardMachines) != cfg.Shards {
		return nil, fmt.Errorf("serve: %d shard machines for %d shards", len(cfg.ShardMachines), cfg.Shards)
	}
	if len(cfg.ShardOfflines) != 0 && len(cfg.ShardOfflines) != cfg.Shards {
		return nil, fmt.Errorf("serve: %d shard profiles for %d shards", len(cfg.ShardOfflines), cfg.Shards)
	}
	s := &Server{cfg: cfg, checkSpans: (cfg.Invariants || check.BuildEnabled) && cfg.Clock == nil}
	s.stamps = cfg.Obs != nil || s.checkSpans
	so := newServeObs(cfg.Obs)
	s.so = &so
	s.static.init()
	if cfg.Shards > 1 {
		s.ro = newRouterObs(cfg.Obs)
	}
	for i := 0; i < cfg.Shards; i++ {
		mc := cfg.Machine
		if len(cfg.ShardMachines) > 0 {
			mc = cfg.ShardMachines[i]
		}
		off := cfg.Offline
		if len(cfg.ShardOfflines) > 0 {
			off = cfg.ShardOfflines[i]
		}
		sh, err := newShard(s, i, mc, off)
		if err != nil {
			// The shards already built run batchers; stop them.
			for _, built := range s.shards {
				built.drain(context.Background())
			}
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// ShardSeed is shard i's victim-selection seed in a cluster seeded
// with seed: shard 0 keeps it (one shard is the pre-router server bit
// for bit), shard i > 0 takes a stream split off it. The live shards
// and the cluster sweep's simulated ones both seed by it.
func ShardSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return xrand.Split(seed, uint64(i))
}

// now is the service's time source (Config.Clock, default time.Now).
func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// Runtime exposes shard 0's live runtime (for Violations() and Stats()
// in tests and diagnostics; with one shard it is the cluster).
func (s *Server) Runtime() *rt.Runtime { return s.shards[0].rt }

// Violations collects the accumulated invariant violations across
// every shard — its runtime's, and the request-span accounts that did
// not close (empty unless Config.Invariants, or the eewa_check build
// tag, is on).
func (s *Server) Violations() []check.Violation {
	var out []check.Violation
	for _, sh := range s.shards {
		out = append(out, sh.rt.Violations()...)
		sh.mu.Lock()
		out = append(out, sh.violations...)
		sh.mu.Unlock()
	}
	return out
}

// Shards returns the cluster's shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Stats returns a cluster-total snapshot of the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Policy:   s.cfg.Policy,
		Workers:  s.cfg.Workers,
		Draining: s.draining.Load(),
		Rejected: s.rejected,
		// Admission fast-fails (deadline already past, 504 before
		// queuing) are timeouts that never reached a shard.
		Timeouts: s.fastFail,
	}
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.addTo(&st)
	}
	return st
}

// Rejection describes a submission refused without being queued: the
// HTTP status the handler reports (400 invalid, 429/503 backpressure,
// 504 deadline already expired at admission), the metrics reason
// label, and a human-readable message.
type Rejection struct {
	Status int    // HTTP status (400, 429, 503 or 504)
	Reason string // metrics label
	Msg    string
}

// noteRejection does the router-level bookkeeping for a refused
// submission (shared by submit and the batch handler). A 504 fast-fail
// is accounted as a timeout — the job's deadline had already expired
// when it arrived — while everything else is a rejection.
func (s *Server) noteRejection(rej *Rejection) {
	if rej.Status == 504 {
		s.mu.Lock()
		s.fastFail++
		s.mu.Unlock()
		s.so.timeouts.Inc()
		s.so.cancelled.With("expired_at_admission").Inc()
		return
	}
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	s.so.rejected.With(rej.Reason).Inc()
}

// Pending is a job Submit queued; Wait blocks until a batch delivers
// its outcome (with Config.ManualFlush that means a Flush or Drain
// call, so always Flush before Wait in lockstep replay).
type Pending struct{ j *job }

// Wait returns the job's final HTTP-equivalent status, the result body
// (non-nil on 200 and on mid-batch 504 partials), and the error
// message for non-200 outcomes. The result is copied out of the pooled
// job, which Wait releases — call it exactly once per Pending.
func (p *Pending) Wait() (status int, res *JobResult, errMsg string) {
	o := <-p.j.done
	if o.res != nil {
		cp := *o.res
		if o.res.Shard != nil {
			idx := *o.res.Shard
			cp.Shard = &idx
		}
		res = &cp
	}
	status, errMsg = o.status, o.err
	p.j.release()
	return status, res, errMsg
}

// Submit validates, admits and routes one job through exactly the
// admission pipeline the HTTP handler uses, without the HTTP layer —
// the programmatic seam trace replay drives. It never blocks on
// execution: a queued job is returned as a Pending, a refused one as a
// Rejection (400 invalid, 429/503 backpressure, 504 deadline already
// expired). Counters and metrics advance exactly as for POST /v1/jobs.
func (s *Server) Submit(req JobRequest) (*Pending, *Rejection) {
	j, rej := s.submit(req)
	if rej != nil {
		return nil, rej
	}
	return &Pending{j: j}, nil
}

// submit is the one admission step of a single job, for Submit and
// POST /v1/jobs alike: validate, route, account a refusal, and wake the
// shard the job was queued on. A refused job is released; a queued one
// is returned holding the caller's reference.
func (s *Server) submit(req JobRequest) (*job, *Rejection) {
	j, err := s.newJob(req)
	if err != nil {
		s.so.rejected.With("invalid").Inc()
		return nil, &Rejection{Status: 400, Reason: "invalid", Msg: err.Error()}
	}
	if rej := s.route(j); rej != nil {
		s.noteRejection(rej)
		j.release()
		return nil, rej
	}
	s.shards[j.shard].wakeBatcher()
	return j, nil
}

// Flush forms and runs batches from every shard's current backlog, on
// the calling goroutine, until the backlog is empty. It is the batch
// boundary under Config.ManualFlush (without it the shards' batchers
// already do this; calling Flush then would race them, so Flush panics
// to make the misuse loud).
func (s *Server) Flush() {
	if !s.cfg.ManualFlush {
		panic("serve: Flush without Config.ManualFlush (the batcher owns the runtime)")
	}
	for _, sh := range s.shards {
		for sh.flushOnce() {
		}
	}
}

// LatencySummary is the point-in-time percentile view of the service's
// request latency, aggregated over every class, tenant and shard since
// start. All values are seconds.
type LatencySummary struct {
	Jobs     uint64  `json:"jobs"`
	E2EMean  float64 `json:"e2e_mean_s"`
	E2EP50   float64 `json:"e2e_p50_s"`
	E2EP95   float64 `json:"e2e_p95_s"`
	E2EP99   float64 `json:"e2e_p99_s"`
	QueueP50 float64 `json:"queue_p50_s"`
	QueueP95 float64 `json:"queue_p95_s"`
	QueueP99 float64 `json:"queue_p99_s"`
}

// LatencySummary merges the request-span families
// eewa_serve_e2e_seconds and eewa_serve_queue_wait_seconds over every
// class and tenant; the families are cluster totals, so this covers
// every shard. It counts every job a batch processed (completed or
// timed out); jobs dropped unstarted are excluded. Without Config.Obs
// there are no span families and the summary is zero. Safe to call
// concurrently with the batchers — the histograms are lock-free.
func (s *Server) LatencySummary() LatencySummary {
	var e2e, queue obs.LogHistogram
	s.so.spanE2E.MergeInto(&e2e)
	s.so.spanQueue.MergeInto(&queue)
	return LatencySummary{
		Jobs:     e2e.Count(),
		E2EMean:  e2e.Mean(),
		E2EP50:   e2e.Quantile(0.50),
		E2EP95:   e2e.Quantile(0.95),
		E2EP99:   e2e.Quantile(0.99),
		QueueP50: queue.Quantile(0.50),
		QueueP95: queue.Quantile(0.95),
		QueueP99: queue.Quantile(0.99),
	}
}

// Drain stops admission cluster-wide, flushes every queued job on
// every shard into final batches, waits for the last barriers and
// stops the batchers. It is what the SIGTERM path of cmd/eewa-serve
// calls; it is safe to call more than once. The context bounds the
// wait — on expiry the batchers keep draining in the background, but
// Drain returns the context error.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if len(s.shards) == 1 {
		return s.shards[0].drain(ctx)
	}
	errs := make(chan error, len(s.shards))
	for _, sh := range s.shards {
		go func(sh *shard) { errs <- sh.drain(ctx) }(sh)
	}
	var first error
	for range s.shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
