package serve

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/rt"
)

// tenantEntry is one tenant's admission state on its shard: the
// queued-task count the depth bound checks, plus this tenant's metric
// handles, resolved once so the admission hot path never walks the
// labeled-family maps.
type tenantEntry struct {
	queued   int
	qd       *obs.Gauge   // eewa_serve_queue_depth child (cluster total, delta-maintained)
	admitted *obs.Counter // eewa_serve_admitted_tenant_total child
}

// shard is the unit the routing tier places work on: one live runtime
// with its own frequency ladder, profile and policy instance, fronted
// by the per-tenant bounded queue + demand-driven batcher + graceful drain
// that used to be the whole of Server. A single-shard cluster routes
// every job here, making the routed server behave exactly like the
// pre-router JobServer.
//
// A shard holds only per-shard facts and state; it reads every setting,
// the clock and the metric bundles through srv. Every bound (queue
// depth, in-flight budget, batch size) applies per shard.
type shard struct {
	srv   *Server
	index int            // shard index within the cluster
	mc    machine.Config // this shard's machine (ladder heterogeneity)
	seed  uint64         // victim-selection seed: ShardSeed(Config.Seed, index)
	rt    *rt.Runtime

	// The admission queue: one FIFO and one tenant table, both under
	// qmu. Admitters append, the batcher pops from the head, drain
	// locks it once as a barrier.
	qmu     sync.Mutex
	pending []*job // pending[head:] is the live queue; reset when drained
	head    int
	tenants map[string]*tenantEntry

	// Hot counters, all atomic so admission and the batcher never share
	// a lock with the stats endpoints.
	queuedN   atomic.Int64 // queued (admitted, unbatched) tasks
	inflight  atomic.Int64 // queued + running tasks
	draining  atomic.Bool
	admitted  atomic.Uint64
	completed atomic.Uint64
	timeouts  atomic.Uint64
	batches   atomic.Uint64
	tasksRun  atomic.Uint64
	tasksCan  atomic.Uint64

	// mu guards the cold batch-boundary state only: the plan-class set,
	// the energy roll-up and the span-account violations, all written at
	// most once per batch.
	mu sync.Mutex

	// planClasses are the task classes profiled in the shard's last
	// batch — exactly the classes its current plan allocated c-groups
	// for. The class-aware router reads this to find "the shard whose
	// current plan has headroom for this class".
	planClasses map[string]struct{}

	// Cluster energy roll-up, accumulated at each batch barrier:
	// attributed is the per-class busy energy, overhead the remainder
	// (search, dry spin, halt, base draw). attributed + overhead ==
	// total by construction — the invariant the eewa_check build
	// verifies cluster-wide.
	energyTotalJ    float64
	energyAttrJ     float64
	energyOverheadJ float64

	// violations are the request-span accounts that did not close
	// (check.SpanIdentity), collected only with invariants on.
	violations []check.Violation

	wake        chan struct{}
	drained     chan struct{}
	drainedOnce sync.Once // manual-flush mode: drain may be called repeatedly

	// Batcher-goroutine scratch, reused across flushes so a steady-state
	// flush allocates nothing: the batch's []rt.Task slab (cleared once
	// its outcomes are delivered, so it pins no job), the batch and
	// expired job lists, the per-class executed-task tally, and the
	// span-histogram handles resolved per (class, tenant).
	taskBuf    []rt.Task
	batchBuf   []*job
	expiredBuf []*job
	classRan   map[string]int
	spans      map[spanKey]*spanSet

	// testBatchEnd, when non-nil, observes every batch's stats after the
	// shard's own bookkeeping — the decision-parity tests record plans
	// through it.
	testBatchEnd func(batch int, bs rt.BatchStats)
}

// spanKey / spanSet cache the labeled span-histogram children per
// (class, tenant). Only the batcher goroutine touches the map, so it
// needs no lock; each With call it saves is a family-map lookup.
type spanKey struct{ class, tenant string }

type spanSet struct {
	queue, batch, exec, barrier, e2e *obs.LogHistogram
	energy                           *obs.Counter // eewa_serve_energy_tenant_joules_total child
}

// spanTol is how far a job's spans may be from summing to its
// end-to-end time, in seconds. The spans telescope and every edge is a
// monotonic reading, so what is left is nanoseconds.
const spanTol = 1e-3

// newShard builds shard index of s on machine mc, with the offline
// profile off (nil for none), and starts its batcher goroutine.
func newShard(s *Server, index int, mc machine.Config, off *profile.Snapshot) (*shard, error) {
	mc.Cores = s.cfg.Workers
	if err := mc.Validate(); err != nil {
		return nil, fmt.Errorf("serve: shard %d: %w", index, err)
	}
	pol, err := policy.New(s.cfg.Policy, mc)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if off != nil {
		e, ok := pol.(*policy.EEWA)
		if !ok {
			return nil, fmt.Errorf("serve: offline profile only applies to EEWA policies, not %s", s.cfg.Policy)
		}
		// Reject a corrupt snapshot loudly at startup: the EEWA policy
		// would otherwise quietly ignore it (or worse, pre-fix, build a
		// CC table without the indivisibility bound).
		if err := off.Validate(mc.Freqs); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		e.Offline = off
	}
	sh := &shard{
		srv:         s,
		index:       index,
		mc:          mc,
		seed:        ShardSeed(s.cfg.Seed, index),
		tenants:     map[string]*tenantEntry{},
		planClasses: map[string]struct{}{},
		classRan:    map[string]int{},
		spans:       map[spanKey]*spanSet{},
		wake:        make(chan struct{}, 1),
		drained:     make(chan struct{}),
	}
	sh.rt, err = rt.New(rt.Config{
		Workers:    s.cfg.Workers,
		Machine:    mc,
		Impl:       pol,
		Seed:       sh.seed,
		Obs:        s.cfg.Obs,
		Invariants: s.cfg.Invariants,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if !s.cfg.ManualFlush {
		go sh.batcher()
	}
	return sh, nil
}

// batchEnd is the shard's bookkeeping after each batch: the batch-size
// family, the plan-class set the router consults, and the energy
// roll-up. The batch's count and wall time are the runtime's to record.
func (sh *shard) batchEnd(batch int, bs rt.BatchStats) {
	sh.srv.so.batchTasks.Observe(float64(bs.Tasks))

	attr := 0.0
	for _, cs := range bs.Classes {
		attr += cs.EnergyJ
	}
	sh.mu.Lock()
	// The next plan derives from this batch's profile, so these classes
	// are the ones the shard's upcoming plan reserves c-groups for. The
	// set is the same from one batch to the next far more often than not.
	same := len(bs.Classes) == len(sh.planClasses)
	for name := range bs.Classes {
		if _, ok := sh.planClasses[name]; !ok {
			same = false
			break
		}
	}
	if !same {
		clear(sh.planClasses)
		for name := range bs.Classes {
			sh.planClasses[name] = struct{}{}
		}
	}
	sh.energyTotalJ += bs.Energy
	sh.energyAttrJ += attr
	sh.energyOverheadJ += bs.Energy - attr
	sh.mu.Unlock()
	sh.srv.ro.shardEnergy(sh.index, bs.Energy)
	if sh.testBatchEnd != nil {
		sh.testBatchEnd(batch, bs)
	}
}

// view is the router's snapshot of the shard for one placement
// decision.
func (sh *shard) view(class string) ShardView {
	sh.mu.Lock()
	_, knows := sh.planClasses[class]
	sh.mu.Unlock()
	return ShardView{
		Index:    sh.index,
		Headroom: sh.srv.cfg.MaxInFlight - int(sh.inflight.Load()),
		Knows:    knows,
		Fastest:  sh.mc.Freqs[0],
	}
}

// tenant returns the shard's entry for the tenant, resolving the
// metric handles on first sight. Caller holds qmu.
func (sh *shard) tenant(name string) *tenantEntry {
	te := sh.tenants[name]
	if te == nil {
		te = &tenantEntry{
			qd:       sh.srv.so.queueDepth.With(name),
			admitted: sh.srv.so.admittedTenant.With(name),
		}
		sh.tenants[name] = te
	}
	return te
}

// admit applies the shard's admission policy to j, which the caller has
// already stamped (j.enqueued): reject while draining, reject when the
// tenant's queue or the in-flight budget is full, otherwise append it
// to the shard's queue. Backpressure is immediate — nothing blocks.
func (sh *shard) admit(j *job) *Rejection {
	n := len(j.tasks)
	sh.qmu.Lock()
	// The drain barrier (drain locks and releases qmu after setting the
	// flag) makes this check authoritative: after the barrier passes, no
	// admit can be past it without seeing draining.
	if sh.draining.Load() {
		sh.qmu.Unlock()
		return &Rejection{Status: 503, Reason: "draining",
			Msg: "server is draining, not admitting new jobs"}
	}
	te := sh.tenant(j.tenant)
	if te.queued+n > sh.srv.cfg.QueueDepth {
		cur := te.queued
		sh.qmu.Unlock()
		return &Rejection{Status: 429, Reason: "tenant_queue_full",
			Msg: fmt.Sprintf("tenant %q queue full (%d/%d tasks)", j.tenant, cur, sh.srv.cfg.QueueDepth)}
	}
	// Every admitter holds qmu and the batcher only ever lowers
	// inflight, so checking before adding is exact.
	if cur := sh.inflight.Load(); cur+int64(n) > int64(sh.srv.cfg.MaxInFlight) {
		sh.qmu.Unlock()
		return &Rejection{Status: 429, Reason: "inflight_budget",
			Msg: fmt.Sprintf("in-flight budget full (%d/%d tasks)", cur, sh.srv.cfg.MaxInFlight)}
	}
	sh.inflight.Add(int64(n))
	j.shard = sh.index
	j.retain() // admission reference, released by the batcher
	sh.pending = append(sh.pending, j)
	te.queued += n
	te.admitted.Inc()
	te.qd.Add(float64(n))
	queued := sh.queuedN.Add(int64(n))
	sh.qmu.Unlock()

	sh.admitted.Add(1)
	sh.srv.so.inflight.Add(float64(n))
	sh.srv.ro.shardInflight(sh.index, int(sh.inflight.Load()))
	if queued >= int64(sh.srv.cfg.MaxBatch) {
		sh.wakeBatcher()
	}
	return nil
}

// wakeBatcher makes the batcher form a batch now instead of at its next
// tick. The channel holds one token, so waking a batcher that is busy
// running a batch costs nothing and is not lost: it looks at the queue
// again when the batch ends. Manual-flush shards have no batcher.
func (sh *shard) wakeBatcher() {
	if sh.srv.cfg.ManualFlush {
		return
	}
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// backlogEmpty reports whether the admission queue is empty.
func (sh *shard) backlogEmpty() bool {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	return sh.head == len(sh.pending)
}

// batcher is the single goroutine that forms and executes iterations.
// rt.Runtime is batch-structured and not concurrency-safe, so all
// RunBatch calls happen here. Batches form on demand: every request
// wakes the batcher once its jobs are admitted (wakeBatcher), so an idle
// shard starts a batch at once, and a busy one finds whatever arrived
// while its batch ran waiting for it — the flushOnce loop below packs
// those arrivals into the next batch, which is how batches grow with
// load. The ticker is only the ceiling on how long an admitted job can
// sit if a wake-up were ever missed.
func (sh *shard) batcher() {
	tick := time.NewTicker(sh.srv.cfg.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-sh.wake:
		case <-tick.C:
		}
		for sh.flushOnce() {
		}
		if sh.draining.Load() && sh.backlogEmpty() {
			close(sh.drained)
			return
		}
	}
}

// dequeued takes a job that left the queue off its tenant's and the
// shard's queued counts. Caller holds qmu.
func (sh *shard) dequeued(j *job) {
	n := len(j.tasks)
	te := sh.tenants[j.tenant]
	te.queued -= n
	te.qd.Add(float64(-n))
	sh.queuedN.Add(int64(-n))
}

// Queued is a job waiting in an admission queue as the batching rule
// sees it. The live job implements it, and so does the trace replay's
// simulated job, so both clocks form batches by the one rule.
type Queued interface {
	TaskCount() int
	WorkHint() float64
	ExpiredBy(now time.Time) bool
}

// NextBatch is the batcher's rule for what goes into one batch formed
// at now. It pops jobs from the head of queue in FIFO order until the
// next job would push a non-empty batch past maxBatch tasks (that job
// opens the next batch); a popped job that has expired is dropped into
// expired instead. The batch is then sorted by descending work hint:
// heavier-hinted jobs first, so their classes are placed before the
// fine-grained filler (the descending-AvgWork order the CC table
// wants), and stably, so equal hints keep FIFO fairness. batch and
// expired come in empty and are appended to, so callers can reuse
// their backing arrays; popped is how many jobs left the head of
// queue, which NextBatch does not modify.
func NextBatch[J Queued](now time.Time, queue []J, maxBatch int, batch, expired []J) (_, _ []J, popped int) {
	tasks := 0
	for _, j := range queue {
		n := j.TaskCount()
		if len(batch) > 0 && tasks+n > maxBatch {
			break // head-of-line: this job opens the next batch
		}
		popped++
		if j.ExpiredBy(now) {
			expired = append(expired, j)
			continue
		}
		batch = append(batch, j)
		tasks += n
	}
	slices.SortStableFunc(batch, func(a, b J) int {
		switch ha, hb := a.WorkHint(), b.WorkHint(); {
		case ha > hb:
			return -1
		case ha < hb:
			return 1
		}
		return 0
	})
	return batch, expired, popped
}

// flushOnce forms one batch from the head of the admission queue and
// runs it. It reports whether any job left the queue (batched or
// expired), so the batcher can loop until the backlog is gone.
func (sh *shard) flushOnce() bool {
	tasks, expiredTasks := 0, 0

	// The formation reading, every batched job's started edge. Under qmu,
	// so no job it pops was stamped at admission after it.
	sh.qmu.Lock()
	now := sh.srv.now()
	batch, expired, popped := NextBatch(now, sh.pending[sh.head:], sh.srv.cfg.MaxBatch, sh.batchBuf[:0], sh.expiredBuf[:0])
	clear(sh.pending[sh.head : sh.head+popped])
	sh.head += popped
	if sh.head == len(sh.pending) {
		// Queue drained: rewind so the backing array is reused from the
		// start instead of growing forever.
		sh.pending, sh.head = sh.pending[:0], 0
	}
	for _, j := range batch {
		tasks += len(j.tasks)
		sh.dequeued(j)
	}
	for _, j := range expired {
		// Deadline passed while queued: the job is dropped before any
		// task starts.
		expiredTasks += len(j.tasks)
		sh.dequeued(j)
	}
	sh.inflight.Add(int64(-expiredTasks))
	sh.timeouts.Add(uint64(len(expired)))
	sh.qmu.Unlock()
	sh.srv.so.inflight.Add(float64(-expiredTasks))
	sh.srv.ro.shardInflight(sh.index, int(sh.inflight.Load()))

	for _, j := range expired {
		sh.srv.so.timeouts.Inc()
		j.finish(outcome{status: 504, err: "deadline expired while queued"})
		j.release()
	}
	if len(batch) == 0 {
		sh.batchBuf, sh.expiredBuf = batch, expired
		return len(expired) > 0
	}

	all := sh.taskBuf[:0]
	for _, j := range batch {
		j.started = now
		all = append(all, j.tasks...)
	}
	bs := sh.rt.RunBatch(all)
	batchIdx := sh.rt.Stats().Batches - 1
	sh.batchEnd(batchIdx, bs)

	for _, j := range batch {
		sh.inflight.Add(int64(-len(j.tasks)))
	}
	sh.batches.Add(1)
	sh.tasksRun.Add(uint64(bs.Tasks - bs.Cancelled))
	sh.tasksCan.Add(uint64(bs.Cancelled))
	sh.srv.so.inflight.Add(float64(-tasks))
	sh.srv.ro.shardInflight(sh.index, int(sh.inflight.Load()))
	sh.srv.so.tasksRun.Add(float64(bs.Tasks - bs.Cancelled))
	sh.srv.so.tasksCancelled.Add(float64(bs.Cancelled))

	// Per-tenant energy attribution: the runtime reports each class's
	// busy-state energy (rt.ClassStats); split every class's share
	// among the batch's jobs of that class, pro rata by executed
	// tasks. The barrier has passed, so j.ran is final.
	clear(sh.classRan)
	for _, j := range batch {
		sh.classRan[j.req.Func] += int(j.ran.Load())
	}

	done := sh.srv.now()
	for _, j := range batch {
		ran := int(j.ran.Load())
		var attr float64
		if cs, ok := bs.Classes[j.req.Func]; ok && sh.classRan[j.req.Func] > 0 {
			attr = cs.EnergyJ * float64(ran) / float64(sh.classRan[j.req.Func])
		}
		sp := sh.spanSetFor(j.req.Func, j.tenant)
		sp.energy.Add(attr)

		// Close the request span: queue, batch-wait, execute and barrier
		// phases, then end to end. Jobs whose every task was withdrawn,
		// and every job when nothing reads payload stamps (Server.stamps),
		// have no payload timestamps and record only queue + e2e.
		queueWait := j.started.Sub(j.enqueued).Seconds()
		sp.queue.Observe(queueWait)
		e2e := done.Sub(j.enqueued).Seconds()
		if fs := j.firstStart.Load(); fs > 0 {
			le := j.lastEnd.Load()
			batchWait := float64(fs-spanNanos(j.started)) / 1e9
			exec := float64(le-fs) / 1e9
			barrier := float64(spanNanos(done)-le) / 1e9
			sp.batch.Observe(batchWait)
			sp.exec.Observe(exec)
			sp.barrier.Observe(barrier)
			if sh.srv.checkSpans {
				if vs := check.SpanIdentity(j.id, queueWait, batchWait, exec, barrier, e2e, spanTol); vs != nil {
					sh.mu.Lock()
					sh.violations = append(sh.violations, vs...)
					sh.mu.Unlock()
				}
			}
		}
		sp.e2e.Observe(e2e)

		j.res = JobResult{
			Job:         j.id,
			Tenant:      j.tenant,
			Func:        j.req.Func,
			Tasks:       len(j.tasks),
			TasksRun:    ran,
			Batch:       batchIdx,
			QueueMS:     queueWait * 1e3,
			BatchMS:     bs.Wall.Seconds() * 1e3,
			EnergyJ:     bs.Energy,
			EnergyAttrJ: attr,
			Steals:      bs.Steals,
			Policy:      sh.srv.cfg.Policy,
		}
		if sh.srv.cfg.Shards > 1 {
			j.res.Shard = &j.shard
		}
		if ran < len(j.tasks) {
			// Some tasks were withdrawn mid-batch (deadline or client
			// disconnect); report the job as timed out, with partials.
			sh.timeouts.Add(1)
			sh.srv.so.timeouts.Inc()
			j.finish(outcome{status: 504, err: "deadline expired mid-batch", res: &j.res})
			j.release()
			continue
		}
		sh.completed.Add(1)
		sh.srv.so.completed.Inc()
		j.finish(outcome{status: 200, res: &j.res})
		j.release()
	}
	clear(all)
	sh.taskBuf, sh.batchBuf, sh.expiredBuf = all, batch, expired
	return true
}

// spanSetFor resolves (and caches) the labeled metric children for one
// (class, tenant) pair. Batcher goroutine only.
func (sh *shard) spanSetFor(class, tenant string) *spanSet {
	k := spanKey{class, tenant}
	sp := sh.spans[k]
	if sp == nil {
		sp = &spanSet{
			queue:   sh.srv.so.spanQueue.With(class, tenant),
			batch:   sh.srv.so.spanBatch.With(class, tenant),
			exec:    sh.srv.so.spanExec.With(class, tenant),
			barrier: sh.srv.so.spanBarrier.With(class, tenant),
			e2e:     sh.srv.so.spanE2E.With(class, tenant),
			energy:  sh.srv.so.tenantEnergy.With(tenant),
		}
		sh.spans[k] = sp
	}
	return sp
}

// drain stops admission on this shard, flushes every queued job into
// final batches, waits for the last barrier and stops the batcher. Safe
// to call more than once. The context bounds the wait — on expiry the
// batcher keeps draining in the background.
func (sh *shard) drain(ctx context.Context) error {
	sh.draining.Store(true)
	// Barrier: any admit that read draining=false holds qmu until its
	// job is enqueued; taking and releasing qmu guarantees all such
	// admissions are visible before the final flush.
	sh.qmu.Lock()
	//lint:ignore SA2001 empty section is the barrier
	sh.qmu.Unlock()
	sh.srv.ro.shardDraining(sh.index, true)
	if sh.srv.cfg.ManualFlush {
		// No batcher goroutine: the backlog drains here, synchronously.
		for sh.flushOnce() {
		}
		sh.drainedOnce.Do(func() { close(sh.drained) })
		return nil
	}
	sh.wakeBatcher()
	select {
	case <-sh.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// snapshot returns the shard's point-in-time counters.
func (sh *shard) snapshot() ShardStats {
	sh.mu.Lock()
	classes := make([]string, 0, len(sh.planClasses))
	for c := range sh.planClasses {
		classes = append(classes, c)
	}
	energyTotal, energyAttr, overhead := sh.energyTotalJ, sh.energyAttrJ, sh.energyOverheadJ
	sh.mu.Unlock()
	sort.Strings(classes)
	return ShardStats{
		Shard:       sh.index,
		Workers:     sh.srv.cfg.Workers,
		FastestGHz:  sh.mc.Freqs[0],
		Draining:    sh.draining.Load(),
		Queued:      int(sh.queuedN.Load()),
		Inflight:    int(sh.inflight.Load()),
		Admitted:    sh.admitted.Load(),
		Completed:   sh.completed.Load(),
		Timeouts:    sh.timeouts.Load(),
		Batches:     sh.batches.Load(),
		Tasks:       sh.tasksRun.Load(),
		Cancelled:   sh.tasksCan.Load(),
		PlanClasses: classes,
		EnergyJ:     energyTotal,
		EnergyAttrJ: energyAttr,
		OverheadJ:   overhead,
	}
}

// addTo folds the shard's counters into the cluster Stats.
func (sh *shard) addTo(st *Stats) {
	st.Queued += int(sh.queuedN.Load())
	st.Inflight += int(sh.inflight.Load())
	st.Admitted += sh.admitted.Load()
	st.Completed += sh.completed.Load()
	st.Timeouts += sh.timeouts.Load()
	st.Batches += sh.batches.Load()
	st.Tasks += sh.tasksRun.Load()
	st.Cancelled += sh.tasksCan.Load()
}
