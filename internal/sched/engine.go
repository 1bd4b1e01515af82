package sched

import (
	"fmt"
	"strconv"

	"repro/internal/cgroup"
	"repro/internal/deque"
	"repro/internal/event"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/task"
	"repro/internal/xrand"
)

// engineObs bundles the engine's resolved metric handles. Every field
// is nil when no registry is attached; all obs types no-op on nil
// receivers, so instrumented sites cost one pointer check when
// observability is off. The only guarded sites are the slice-indexed
// per-group counters inside the steal loops.
type engineObs struct {
	reg *obs.Registry

	stealAttempts []*obs.Counter // indexed by victim c-group
	steals        []*obs.Counter
	census        []*obs.Counter // indexed by frequency level
	probeMisses   *obs.Counter
	tasks         *obs.Counter
	migrations    *obs.Counter
	batches       *obs.Counter
	batchSeconds  *obs.LogHistogram
	energy        *obs.Counter
	dvfs          *obs.Counter
	adjInv        *obs.Counter
	adjOverhead   *obs.Counter
	adjHost       *obs.Counter
	adjInfeasible *obs.Counter
	planHits      *obs.Counter
	planMisses    *obs.Counter
	searchSteps   *obs.LogHistogram
	idealTime     *obs.LogHistogram
	makespan      *obs.Gauge
	runs          *obs.Counter

	// Per-class task distributions: wait is batch start → execution
	// start, latency is batch start → completion. Children are resolved
	// once per class through class() and cached — the event loop is
	// single-threaded, so a plain map suffices and the family mutex is
	// paid once per class per run.
	taskWait  *obs.LogHistogramVec
	taskLat   *obs.LogHistogramVec
	classHist map[string]classHandles
}

// classHandles caches one class's resolved histogram children.
type classHandles struct {
	wait, lat *obs.LogHistogram
}

// class returns the cached histogram handles for a task class (zero
// handles when no registry is attached — Observe on nil no-ops).
func (o *engineObs) class(name string) classHandles {
	if o.reg == nil {
		return classHandles{}
	}
	h, ok := o.classHist[name]
	if !ok {
		h = classHandles{wait: o.taskWait.With(name), lat: o.taskLat.With(name)}
		o.classHist[name] = h
	}
	return h
}

// newEngineObs registers the simulator's metric families on reg and
// resolves fixed-cardinality children up front (victim c-groups and
// frequency levels are both bounded by the ladder length), so the hot
// path never takes the registry lock.
func newEngineObs(reg *obs.Registry, levels int) engineObs {
	if reg == nil {
		return engineObs{}
	}
	o := engineObs{
		reg:          reg,
		probeMisses:  reg.Counter("eewa_sim_probe_misses_total", "Pool inspections that found no task."),
		tasks:        reg.Counter("eewa_sim_tasks_total", "Tasks executed."),
		migrations:   reg.Counter("eewa_sim_migrations_total", "Tasks executed outside their class's allocated c-group."),
		batches:      reg.Counter("eewa_sim_batches_total", "Batches executed."),
		batchSeconds: reg.LogHistogram("eewa_sim_batch_seconds", "Per-batch simulated duration."),
		energy:       reg.Counter("eewa_sim_energy_joules_total", "Whole-machine simulated energy."),
		dvfs:         reg.Counter("eewa_sim_dvfs_transitions_total", "Core frequency switches."),
		adjInv:       reg.Counter("eewa_sim_adjuster_invocations_total", "Batches that charged a frequency-adjuster decision."),
		adjOverhead:  reg.Counter("eewa_sim_adjuster_overhead_seconds_total", "Simulated adjuster charge."),
		adjHost:      reg.Counter("eewa_sim_adjuster_host_seconds_total", "Measured host time of adjuster decisions."),
		adjInfeasible: reg.Counter("eewa_sim_adjuster_infeasible_total",
			"Adjuster decisions where no frequency tuple fit the cores, so every core stayed at F0."),
		planHits:    reg.Counter("eewa_plan_cache_hits_total", "Adjusted plans served from the memoized tuple-search cache."),
		planMisses:  reg.Counter("eewa_plan_cache_misses_total", "Adjusted plans that ran the backtracking tuple search."),
		searchSteps: reg.LogHistogram("eewa_sim_adjuster_search_steps", "Select attempts per Algorithm 1 tuple search."),
		idealTime: reg.LogHistogram("eewa_sim_plan_ideal_seconds",
			"Ideal iteration time T each adjusted plan was planned against (0 when the adjuster did not run)."),
		makespan: reg.Gauge("eewa_sim_makespan_seconds", "Makespan of the most recent run."),
		runs:     reg.Counter("eewa_sim_runs_total", "Completed simulation runs."),
		taskWait: reg.LogHistogramVec("eewa_sim_task_wait_seconds",
			"Simulated wait from batch start to execution start, by task class.", "class"),
		taskLat: reg.LogHistogramVec("eewa_sim_task_latency_seconds",
			"Simulated latency from batch start to completion, by task class.", "class"),
		classHist: map[string]classHandles{},
	}
	attemptVec := reg.CounterVec("eewa_sim_steal_attempts_total", "Remote pool probes by victim c-group.", "victim_group")
	stealVec := reg.CounterVec("eewa_sim_steals_total", "Successful remote steals by victim c-group.", "victim_group")
	censusVec := reg.CounterVec("eewa_sim_census_core_seconds_total", "Core-seconds of batch residency by frequency level (the paper's Fig. 8 census, integrated).", "level")
	for i := 0; i < levels; i++ {
		l := strconv.Itoa(i)
		o.stealAttempts = append(o.stealAttempts, attemptVec.With(l))
		o.steals = append(o.steals, stealVec.With(l))
		o.census = append(o.census, censusVec.With(l))
	}
	return o
}

// engine executes one workload under one policy. The hot path is
// struct-of-arrays: each batch is flattened into task.SoA parallel
// arrays (class id, work, memory fraction, miss intensity) and task
// *indices* flow through the pools — unsynchronized deque.Ring[int32]
// rings with the same owner-LIFO / thief-FIFO semantics as the live
// runtime's Chase–Lev deques (the deque property tests pin Ring to the
// Locked oracle). The event loop is single-threaded, so per-operation
// synchronization would buy nothing, and determinism is preserved.
//
// Nothing is allocated per task: completions are scheduled through
// event.Queue.AtIndex as bare core indices (a core runs one task at a
// time, so per-core running-task arrays carry what the completion
// needs), placement runs through policy.IndexedPlacer over class ids,
// and the profiler is fed through cached profile.ClassRef handles. The
// SoA slab, the rings and every per-core array are reused across
// batches.
type engine struct {
	cfg    machine.Config
	m      *machine.Machine
	q      *event.Queue
	prof   *profile.Profiler
	policy policy.Policy
	params Params

	// soa holds the current batch's task arrays; ratios[j] = F0/Fj.
	soa    task.SoA
	ratios []float64

	// pools[c*u+g] — flattened task-index pools, reused across batches
	// while the plan's group count u is stable (each batch drains them
	// completely), rebuilt when u changes.
	pools []*deque.Ring[int32]
	u     int

	// asn is plan.Assignment — the policy's own, valid until its next
	// BeginBatch. steal and placer are reset to the plan at each batch
	// boundary; walkers[core] are the per-core victim iterators over
	// steal, so the acquire loop re-derives neither the preference lists
	// nor a fresh permutation buffer per attempt.
	asn     *cgroup.Assignment
	plan    policy.Plan
	steal   policy.StealOrder
	placer  policy.IndexedPlacer
	walkers []*policy.VictimWalker

	victimRNG []*xrand.RNG // per-core victim selection streams

	// Per-batch per-class-id state, indexed by soa class id: the
	// class's c-group under the current assignment, its profiler
	// recording handle, and its resolved histogram children. refCache
	// keeps one ClassRef per class name for the whole run (refs
	// re-resolve across profiler generations).
	classGroup []int
	classRefs  []*profile.ClassRef
	classH     []classHandles
	refCache   map[string]*profile.ClassRef

	// Per-core running-task state, valid from acquire to completion (a
	// core runs at most one task at a time). Completion and wake-up
	// events carry only a core index through event.Queue.AtIndex:
	// payload c < Cores means complete(c), payload Cores+c means
	// coreFree(c).
	runTask  []int32
	runExec  []float64
	runLead  []float64
	runLevel []int32

	// pooled counts the batch's tasks still in a pool: placed, not yet
	// popped or stolen. At zero every steal walk must fail.
	pooled         int
	remaining      int
	lastCompletion float64
	batchStart     float64

	// Observability state: spanRec mirrors params.Recorder when it also
	// captures steal/idle intervals; idleAt[c] is when core c ran out of
	// work this batch (-1 while it still has work); lastEnergy/lastDVFS
	// are the previous batch boundary's cumulative values, for deltas.
	eo         engineObs
	spanRec    SpanRecorder
	idleAt     []float64
	lastEnergy float64
	lastDVFS   int

	res *Result
}

// Run simulates workload w on machine cfg under policy p and returns
// the full Result. It validates its inputs and is deterministic for a
// given params.Seed.
func Run(cfg machine.Config, w *task.Workload, p policy.Policy, params Params) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if params.Seed == 0 {
		params.Seed = 1
	}

	e := &engine{
		cfg:    cfg,
		m:      machine.New(cfg),
		q:      event.New(),
		prof:   profile.New(cfg.Freqs),
		policy: p,
		params: params,
		res:    &Result{Policy: p.Name(), Workload: w.Name},
	}
	e.victimRNG = make([]*xrand.RNG, cfg.Cores)
	seedRNG := xrand.New(params.Seed)
	for c := range e.victimRNG {
		e.victimRNG[c] = seedRNG.Split()
	}
	e.eo = newEngineObs(params.Obs, len(cfg.Freqs))
	if sr, ok := params.Recorder.(SpanRecorder); ok {
		e.spanRec = sr
	}
	e.idleAt = make([]float64, cfg.Cores)
	e.ratios = make([]float64, len(cfg.Freqs))
	for j := range e.ratios {
		e.ratios[j] = cfg.Freqs.Ratio(j)
	}
	e.refCache = make(map[string]*profile.ClassRef)
	e.runTask = make([]int32, cfg.Cores)
	e.runExec = make([]float64, cfg.Cores)
	e.runLead = make([]float64, cfg.Cores)
	e.runLevel = make([]int32, cfg.Cores)
	e.q.SetIndexFn(func(v int32) {
		if c := int(v); c < cfg.Cores {
			e.complete(c)
		} else {
			e.coreFree(c - cfg.Cores)
		}
	})

	env := &policy.Env{Cfg: cfg, AdjusterCharge: adjusterCharge}
	for bi := range w.Batches {
		if err := e.runBatch(bi, &w.Batches[bi], env); err != nil {
			return nil, err
		}
		if bi == 0 {
			env.IdealTime = e.res.BatchTimes[0]
		}
	}

	now := e.q.Now()
	e.m.Sync(now)
	e.eo.makespan.Set(now)
	e.eo.runs.Inc()
	e.res.Makespan = now
	e.res.Energy = e.m.EnergyAt(now)
	e.res.CoreEnergy = e.m.CoreEnergyAt(now)
	e.res.BusyTime = e.m.TotalBusyTime()
	e.res.SpinTime = e.m.TotalSpinTime()
	e.res.HaltTime = e.m.TotalHaltTime()
	e.res.DVFSTransitions = e.m.DVFSTransitions
	e.res.MemoryBound = e.prof.MemoryBound()
	if len(e.res.BatchTimes) > 0 && e.prof.NumClasses() > 0 {
		e.res.Profile = e.prof.Snapshot(e.res.BatchTimes[0])
	}
	return e.res, nil
}

// runBatch plans, places and executes one batch.
func (e *engine) runBatch(bi int, b *task.Batch, env *policy.Env) error {
	now := e.q.Now()

	// Barrier: everyone parks while the plan is computed.
	for c := 0; c < e.cfg.Cores; c++ {
		e.m.SetState(now, c, machine.Halted)
	}

	plan := e.policy.BeginBatch(bi, e.prof, env)
	if plan.Assignment == nil {
		return fmt.Errorf("sched: policy %s returned nil assignment for batch %d", e.policy.Name(), bi)
	}
	if err := plan.Assignment.Validate(e.cfg.Cores, len(e.cfg.Freqs)); err != nil {
		return fmt.Errorf("sched: policy %s batch %d: %w", e.policy.Name(), bi, err)
	}
	e.prof.Reset()
	e.plan = plan
	e.asn = plan.Assignment
	e.steal.Reset(&e.plan, e.cfg.Cores)
	if e.walkers == nil {
		e.walkers = make([]*policy.VictimWalker, e.cfg.Cores)
		for c := range e.walkers {
			e.walkers[c] = e.steal.Walker(c)
		}
	}
	e.res.AdjusterSimTime += plan.Overhead
	e.res.AdjusterHostTime += plan.HostTime

	// Charge the adjuster overhead: the master computes, workers spin
	// at the barrier (the conservative choice — it prices EEWA's
	// bookkeeping at full burn).
	if plan.Overhead > 0 {
		for c := 0; c < e.cfg.Cores; c++ {
			e.m.SetState(now, c, machine.Spinning)
		}
		now += plan.Overhead
	}

	// Apply the frequency configuration; one DVFS latency window if
	// anything changed (switches happen in parallel across cores).
	changed := false
	for c := 0; c < e.cfg.Cores; c++ {
		lvl := e.asn.FreqOf(c)
		if e.m.Freq(c) != lvl {
			e.m.SetFreq(now, c, lvl)
			changed = true
		}
	}
	if changed && e.cfg.DVFSLatency > 0 {
		for c := 0; c < e.cfg.Cores; c++ {
			e.m.SetState(now, c, machine.Halted)
		}
		now += e.cfg.DVFSLatency
	}

	census := e.m.FreqCensus()
	e.res.BatchCensus = append(e.res.BatchCensus, census)

	e.place(b)
	e.pooled = len(b.Tasks)
	e.remaining = len(b.Tasks)
	e.batchStart = now
	e.lastCompletion = now
	for c := range e.idleAt {
		e.idleAt[c] = -1
	}

	// Every core wakes at the same instant; the queue fires the wake-ups
	// in core order (same-time events are FIFO).
	for c := 0; c < e.cfg.Cores; c++ {
		e.q.AtIndex(now, int32(e.cfg.Cores+c))
	}
	e.q.Run()

	dur := e.lastCompletion - e.batchStart
	e.res.BatchTimes = append(e.res.BatchTimes, dur)
	if e.remaining != 0 {
		return fmt.Errorf("sched: batch %d finished with %d tasks unexecuted", bi, e.remaining)
	}
	if e.spanRec != nil {
		for c, ts := range e.idleAt {
			if ts >= 0 && e.lastCompletion > ts {
				e.spanRec.RecordIdle(c, ts, e.lastCompletion)
			}
		}
	}
	e.observeBatch(dur, census, plan)
	// Advance the clock to the barrier (the queue's clock stops at the
	// last event, which is the final core going idle ≈ lastCompletion).
	if _, ok := e.q.NextTime(); ok {
		panic("sched: events left after batch drain")
	}
	e.q.RunUntil(e.lastCompletion)
	return nil
}

// observeBatch publishes one batch's metrics; it is a no-op without a
// registry.
func (e *engine) observeBatch(dur float64, census []int, plan policy.Plan) {
	if e.eo.reg == nil {
		return
	}
	e.eo.batches.Inc()
	e.eo.batchSeconds.Observe(dur)
	for lvl, n := range census {
		if n > 0 && lvl < len(e.eo.census) {
			e.eo.census[lvl].Add(dur * float64(n))
		}
	}
	en := e.m.EnergyAt(e.lastCompletion)
	e.eo.energy.Add(en - e.lastEnergy)
	e.lastEnergy = en
	e.eo.dvfs.Add(float64(e.m.DVFSTransitions - e.lastDVFS))
	e.lastDVFS = e.m.DVFSTransitions
	if plan.Overhead > 0 {
		e.eo.adjInv.Inc()
		e.eo.adjOverhead.Add(plan.Overhead)
		e.eo.adjHost.Add(plan.HostTime.Seconds())
		e.eo.searchSteps.Observe(float64(plan.SearchSteps))
	}
	if plan.Adjusted {
		e.eo.idealTime.Observe(plan.IdealTime)
		if plan.CacheHit {
			e.eo.planHits.Inc()
		} else {
			e.eo.planMisses.Inc()
		}
		if plan.Infeasible {
			e.eo.adjInfeasible.Inc()
		}
	}
}

// place flattens the batch into the SoA slab, resolves the per-class
// metadata (c-group, profiler ref, histogram handles) once, and
// distributes task indices into the pools per the plan's placement
// discipline (policy.IndexedPlacer — placement-identical to the
// string-keyed Placer the live runtime shares).
func (e *engine) place(b *task.Batch) {
	e.soa.Fill(b)
	m, u := e.cfg.Cores, e.asn.U()
	// A completed batch drains every pool (runBatch errors otherwise),
	// so the rings can be reused as-is while the group count holds —
	// only a plan with a different u forces a rebuild.
	if len(e.pools) != m*u {
		e.pools = make([]*deque.Ring[int32], m*u)
		for i := range e.pools {
			e.pools[i] = deque.NewRing[int32]()
		}
	}
	e.u = u

	nc := len(e.soa.Classes)
	if cap(e.classGroup) < nc {
		e.classGroup = make([]int, nc)
		e.classRefs = make([]*profile.ClassRef, nc)
		e.classH = make([]classHandles, nc)
	}
	e.classGroup = e.classGroup[:nc]
	e.classRefs = e.classRefs[:nc]
	e.classH = e.classH[:nc]
	for cid, name := range e.soa.Classes {
		e.classGroup[cid] = e.asn.GroupOfClass(name)
		ref, ok := e.refCache[name]
		if !ok {
			ref = e.prof.Ref(name)
			e.refCache[name] = ref
		}
		e.classRefs[cid] = ref
		e.classH[cid] = e.eo.class(name)
	}

	e.placer.Reset(&e.plan, m, e.soa.Classes)
	for i, cid := range e.soa.ClassID {
		c, g := e.placer.Place(cid)
		e.pools[c*u+g].PushBottom(int32(i))
	}
}

// coreFree fires every time core c needs new work.
func (e *engine) coreFree(c int) {
	now := e.q.Now()
	ti, probes, stolen, victimG := e.acquire(c)
	e.res.Probes += probes
	if ti < 0 {
		e.eo.probeMisses.Add(float64(probes))
		e.idleAt[c] = now
		act := e.policy.OutOfWork(c)
		if act.FreqLevel >= 0 {
			e.m.SetFreq(now, c, act.FreqLevel)
		}
		e.m.SetState(now, c, act.State)
		return
	}
	e.eo.probeMisses.Add(float64(probes - 1))
	e.eo.tasks.Inc()
	if stolen {
		e.res.Steals++
	}
	cid := e.soa.ClassID[ti]
	if e.classGroup[cid] != e.asn.CoreGroup[c] {
		e.res.Migrated++
		e.eo.migrations.Inc()
	}

	lead := float64(probes) * probeCost
	if stolen {
		lead += stealCost
		if e.spanRec != nil && lead > 0 {
			e.spanRec.RecordSteal(c, now, now+lead, victimG)
		}
	}
	level := e.m.Freq(c)
	exec := e.soa.TimeAt(ti, e.ratios[level])
	e.m.SetState(now, c, machine.Busy)
	e.runTask[c], e.runExec[c], e.runLead[c], e.runLevel[c] = ti, exec, lead, int32(level)
	// One task runs per core at a time, so the completion event is just
	// the core index — an AtIndex payload: no allocation and no pointer
	// write per task.
	e.q.AtIndex(now+lead+exec, int32(c))
}

// complete fires when core c finishes its running task.
func (e *engine) complete(c int) {
	now := e.q.Now()
	ti := e.runTask[c]
	exec, lead, level := e.runExec[c], e.runLead[c], int(e.runLevel[c])
	// The core was marked Busy at acquire time, but the first `lead`
	// seconds of that interval were probe/steal overhead, not task
	// execution — the recorded span is [now-exec, now]. Charge through
	// now and reclassify the lead as Spinning so machine busy-seconds
	// equal traced span-seconds exactly. Busy and Spinning draw the same
	// power, so energy and all scheduling decisions are untouched.
	if lead > 0 {
		e.m.Sync(now)
		e.m.ReclassifyBusyAsSpin(c, lead)
	}
	cid := e.soa.ClassID[ti]
	if e.params.Recorder != nil {
		e.params.Recorder.Record(c, now-exec, now, e.soa.Classes[cid], level)
	}
	if e.eo.reg != nil {
		h := e.classH[cid]
		h.wait.Observe(now - exec - e.batchStart)
		h.lat.Observe(now - e.batchStart)
	}
	e.classRefs[cid].Record(exec, level, e.soa.Miss[ti])
	e.remaining--
	if now > e.lastCompletion {
		e.lastCompletion = now
	}
	e.coreFree(c)
}

// acquire finds the next task for core c, returning its SoA index (-1
// when every reachable pool is dry), the number of pools probed,
// whether it was a remote steal, and the victim c-group of a
// successful steal (-1 otherwise). The victim order — classic random
// stealing or the paper's rob-the-weaker-first preference walk — comes
// from the shared policy core.
func (e *engine) acquire(c int) (int32, int, bool, int) {
	probes := 0
	myG := e.asn.CoreGroup[c]
	counted := e.eo.stealAttempts != nil

	// Local pool first — both disciplines.
	probes++
	if ti, ok := e.pools[c*e.u+myG].PopBottom(); ok {
		e.pooled--
		return ti, probes, false, -1
	}

	w, rng := e.walkers[c], e.victimRNG[c]
	if e.pooled == 0 {
		// Every pool is dry, so the walk fails: advance the core's
		// victim stream and count its probes without probing a pool.
		var missed func(g, n int)
		if counted {
			missed = func(g, n int) { e.eo.stealAttempts[g].Add(float64(n)) }
		}
		return -1, probes + w.SkipVictims(rng, missed), false, -1
	}

	got := int32(-1)
	victimG := -1
	w.ForEachVictim(rng, func(v, g int) bool {
		probes++
		if counted {
			e.eo.stealAttempts[g].Inc()
		}
		ti, ok := e.pools[v*e.u+g].Steal()
		if !ok {
			return false
		}
		e.pooled--
		if counted {
			e.eo.steals[g].Inc()
		}
		got, victimG = ti, g
		return true
	})
	if got < 0 {
		return -1, probes, false, -1
	}
	return got, probes, true, victimG
}
