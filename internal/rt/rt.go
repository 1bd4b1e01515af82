// Package rt is the live work-stealing runtime: EEWA's scheduling
// algorithms running on real goroutines with lock-free Chase–Lev
// deques, executing real task payloads (e.g. the internal/kernels
// compressors and hashes).
//
// All scheduling *decisions* — per-batch planning, task placement,
// steal preference order, out-of-work behaviour — come from
// internal/policy, the same code the discrete-event simulator
// executes; this package only supplies the execution substrate. All
// four policies (Cilk, Cilk-D, WATS, EEWA) therefore run live.
//
// The runtime is batch-structured like the paper's programs:
//
//	rt, _ := rt.New(cfg)
//	for i := 0; i < batches; i++ {
//	    stats := rt.RunBatch(tasks)   // blocks until the barrier
//	}
//	total := rt.Stats()
//
// # The batch loop
//
// RunBatch plans, places every task single-threaded, then runs the
// batch on n workers: the caller's goroutine is worker 0 and n−1
// goroutines are spawned for the others (spawned per batch, not parked
// between batches: waking a parked goroutine costs the same thread
// wake-up as starting one, and a measured prototype met every target
// without them). A batch ends when its last task ends. Tasks are never
// pushed mid-batch, so an empty pool stays empty: a worker that has
// popped its own pool dry and walked the policy's whole victim order
// seeing every pool empty (Len() == 0 — a failed steal alone is a lost
// race, and makes it scan again) records its dry instant, applies the
// policy's out-of-work action and returns. Nobody polls, nobody counts
// remaining tasks, and the barrier is the spawned workers' WaitGroup.
// A pool can look empty while its owner is still claiming the last
// task; that task is the owner's to run, so leaving is still right.
//
// Per-task state is private to the worker (a struct kept on the Runtime
// across batches: victim walker, RNG, per-class totals indexed by a
// class id interned at placement, plain counters) and is folded into
// BatchStats, the metrics and the profiler once, after the barrier. A
// task costs two clock reads, and placing it costs no allocation: the
// pools hold pointers into the runtime's own slot slab.
//
// # Frequency emulation
//
// Real DVFS needs root access and specific hardware, and Go cannot pin
// goroutines to cores, so the runtime emulates frequency scaling with
// *duty-cycle throttling*: a worker logically clocked at Fj runs each
// payload at native speed and owes (F0/Fj − 1)× the measured run time
// of idleness, making its effective throughput Fj/F0 of a full-speed
// worker. The idleness is a debt: it accrues per task and is slept off
// once it reaches a quantum (200 µs), the measured sleep — overshoot
// included — is subtracted, so physical time converges on the modelled
// Σ dur × F0/Fj, and what is left when the worker runs dry is yielded
// away, never slept.
//
// The sleep is nanosleep(2) on the worker's own thread where the
// platform has it (sleep_linux.go), not time.Sleep: a Go timer fires
// from the netpoller, whose wait is rounded up to a millisecond when
// the runtime is otherwise idle — exactly the low-load regime a served
// three-task batch lives in, where no later task absorbs the overshoot
// the debt scheme would credit back. Measured on the reference host
// (2 vCPUs, idle runtime, p10–p90): time.Sleep(290 µs) returns after
// 1.12 ms (1.10–1.18), nanosleep after 0.38 ms. Spinning on
// runtime.Gosched until the debt is paid is as precise and was
// measured worse: on sibling vCPUs it slows the other worker's payload.
// The quantum stays because each sleep still overshoots by ≈100 µs of
// thread wake-up, which must remain a fraction of what the sleep pays.
// Everything the paper's scheduler observes — execution times, Eq. 1
// normalization, class profiles, CC tables, c-groups, preference
// stealing — is then exercised for real, under true concurrency.
//
// Energy is accounted from the same power model the simulator uses,
// integrated per worker over Busy (payload stretched to its level),
// Search, Dry (from the dry instant to the end of the batch, at the
// out-of-work level: the modelled core idles there although the
// goroutine has gone) and Halt (the remainder); see WorkerSecs.
package rt

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgroup"
	"repro/internal/check"
	"repro/internal/deque"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/xrand"
)

// Task is one unit of live work.
type Task struct {
	// Class is the function name used for task-class profiling.
	Class string
	// Run is the payload, executed exactly once.
	Run func()
	// Cancelled, when non-nil, is consulted once after the task is
	// acquired and before Run: returning true skips the payload (the
	// task still counts as acquired exactly once, so task conservation
	// holds, and it is reported in BatchStats.Cancelled). This is the
	// cancellation hook a submission layer uses to drop
	// queued-but-unstarted work whose deadline expired after the batch
	// was formed. It must be safe to call from the worker goroutine.
	Cancelled func() bool
}

// Policy names the scheduling discipline: an identifier policy.New
// accepts (its four IDs or an EEWA variant). The empty Policy is
// PolicyCilk.
type Policy string

const (
	// PolicyCilk: classic random stealing, all workers at full speed.
	PolicyCilk Policy = policy.IDCilk
	// PolicyEEWA: the paper's scheduler — profile, adjust virtual
	// frequencies per batch, preference stealing.
	PolicyEEWA Policy = policy.IDEEWA
)

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines ("cores").
	Workers int
	// Machine supplies the frequency ladder and power model; its core
	// count is overridden by Workers.
	Machine machine.Config
	// Policy selects the scheduling discipline (ignored when Impl is
	// set); empty is PolicyCilk, and an unknown name is New's error.
	Policy Policy
	// Impl, when non-nil, supplies the policy implementation directly
	// — e.g. a policy.EEWA with an offline profile, or a recording
	// wrapper in the parity tests.
	Impl policy.Policy
	// Seed drives victim selection.
	Seed uint64
	// Obs, when non-nil, receives the runtime's metrics: per-batch wall
	// time, worker busy/idle/barrier seconds, placement pool depths,
	// emulated DVFS transitions, census gauges and modeled energy (see
	// internal/obs). Apart from the per-class execution histogram, which
	// workers feed per task, all observations happen at batch boundaries;
	// a nil registry costs nothing.
	Obs *obs.Registry
	// Invariants enables the internal/check batch invariants: task
	// conservation (every spawned task acquired exactly once — executed,
	// or skipped through its Cancelled hook), the per-worker energy
	// identity, and plan feasibility. Violations are collected on the
	// runtime (Violations) and counted on the
	// eewa_rt_invariant_violations_total metric. Building with
	// -tags eewa_check forces this on for every runtime.
	Invariants bool
}

// WorkerSecs is one worker's wall-time decomposition for a batch, in
// seconds. The accounting identity is
//
//	Busy + Search + Dry + Halt − Residual = batch wall time
//
// exactly: Halt is the remainder, and Residual is the amount the
// remainder had to be clipped by because the modeled states overran the
// measured wall (it should be ≈0; a large value means a state is
// double-counted and the energy integral is wrong).
type WorkerSecs struct {
	// Busy is payload execution stretched to the plan level's speed
	// (Σ dur × F0/Fj) — throttle sleeps are part of it, not of Search.
	Busy float64
	// Search is work-search time (pop/probe/steal) at the plan level.
	Search float64
	// Dry is the time from the instant the worker found every reachable
	// pool empty to the end of the batch, at the policy's out-of-work
	// level: the modelled core idles there until the barrier (the
	// goroutine itself has returned).
	Dry float64
	// Halt is the remainder, clipped at zero: the lag before a spawned
	// worker first ran, plus any throttle oversleep the batch ended
	// before later tasks could absorb.
	Halt float64
	// Residual is the clipped overrun (accounted, never silently lost).
	Residual float64
}

// ClassStats is one task class's share of a batch: duty-cycle-stretched
// busy seconds, and the busy-state energy those seconds drew at the
// executing workers' frequency levels. Summed over classes, EnergyJ is
// the attributable part of BatchStats.Energy; the remainder (search,
// dry spin, barrier halt, base draw) is scheduling overhead no single
// class caused.
type ClassStats struct {
	// BusySecs is the summed duty-cycle-stretched execution time.
	BusySecs float64
	// EnergyJ is the busy-state energy integral over BusySecs.
	EnergyJ float64
}

// BatchStats summarizes one batch.
type BatchStats struct {
	// Wall is the batch's wall-clock duration.
	Wall time.Duration
	// Tasks is the number of tasks executed.
	Tasks int
	// Census is the number of workers at each frequency level.
	Census []int
	// Levels is the per-worker frequency level the plan assigned for
	// the batch.
	Levels []int
	// Steals counts non-local task acquisitions.
	Steals int
	// Cancelled counts tasks skipped through their Cancelled hook.
	Cancelled int
	// Energy is the modeled energy for the batch (joules).
	Energy float64
	// Workers is the per-worker wall-time decomposition the energy was
	// integrated from.
	Workers []WorkerSecs
	// Residual is the summed per-worker accounting residual (seconds).
	Residual float64
	// Classes attributes execution time and busy energy to each task
	// class that ran in the batch — the per-class half of the energy
	// attribution the serving layer turns into per-tenant counters.
	Classes map[string]ClassStats
}

// RunStats accumulates across batches.
type RunStats struct {
	Batches int
	Tasks   int
	Wall    time.Duration
	Energy  float64
}

// throttleQuantum is the smallest throttle debt a worker pays by
// sleeping. A sleep overshoots by the thread's wake-up (≈100 µs with
// nanosleep, sleep_linux.go), so the quantum keeps the overshoot a
// fraction of what the sleep pays; smaller debts wait for more to
// accrue, and whatever is left when the worker runs dry is paid by
// yielding.
const throttleQuantum = int64(200 * time.Microsecond)

// slot is the runtime's record of one placed task. The pools hold
// pointers into the runtime's slot slab (deque.Chase.PushBottomRef), so
// placing a task allocates nothing and the per-task class id and
// conservation counter need no side table.
type slot struct {
	task *Task
	cid  int32 // class id, interned per batch during placement
	// acquired counts how many times a worker took the task; touched
	// only with invariants on (task conservation wants exactly 1).
	acquired atomic.Int32
}

// classAcc is one worker's running total for one task class in the
// current batch: stretched busy seconds, the longest single task and
// the task count. Folded into BatchStats.Classes and the profiler at
// the barrier.
type classAcc struct {
	tasks     int
	secs, max float64
}

// worker is one worker's state, kept on the Runtime across batches.
// During a batch only the worker itself touches it; RunBatch reads the
// outcome fields after the barrier, so none of it is atomic.
type worker struct {
	r      *Runtime
	id     int
	spawn  func() // goroutine body for workers 1..n-1: run, then wg.Done
	walker policy.VictimWalker
	rng    xrand.RNG
	acc    []classAcc // indexed by class id

	// Outcome of the current batch, in nanoseconds since Runtime.start.
	busyNS    int64 // Σ dur × ratio
	searchNS  int64
	dryNS     int64 // the instant the worker found every pool empty
	idleLevel int   // the level the policy's OutOfWork action left it at
	steals    int
	cancelled int

	_ [64]byte // keep neighbouring workers' counters off this cache line
}

// Runtime executes batches of tasks under a policy.
type Runtime struct {
	cfg    Config
	ladder machine.FreqLadder
	pol    policy.Policy
	prof   *profile.Profiler // touched only between batches, by the caller

	env    policy.Env // what the policy plans from; IdealTime set after batch 0
	plan   policy.Plan
	asn    *cgroup.Assignment // plan.Assignment: the policy's own, valid until its next BeginBatch
	levels []int              // per-worker frequency level for the current batch

	// pools[worker][group] — reused across batches while the worker
	// count and the plan's group count u hold (a completed batch drains
	// every deque, so only a shape change forces a rebuild). RunBatch is
	// single-caller, so no synchronization is needed between batches.
	pools   [][]*deque.Chase[slot]
	workers []worker
	wg      sync.WaitGroup
	start   time.Time // the current batch's time origin

	// Placement scratch, rebuilt single-threaded each batch and read-only
	// while workers run.
	placer     policy.IndexedPlacer
	order      policy.StealOrder
	slots      []slot
	classIDs   map[string]int32
	classNames []string            // by class id
	classHist  []*obs.LogHistogram // by class id; nil without a registry
	depths     []int               // per-worker placement count, for the metrics

	batchIndex int

	ro rtObs

	inv        bool
	violations []check.Violation

	stats RunStats
}

// New validates cfg and builds a runtime. Workers must be ≥ 1.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("rt: need at least one worker, got %d", cfg.Workers)
	}
	mc := cfg.Machine
	mc.Cores = cfg.Workers
	if err := mc.Validate(); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	cfg.Machine = mc
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	pol := cfg.Impl
	if pol == nil {
		name := cfg.Policy
		if name == "" {
			name = PolicyCilk
		}
		var err error
		pol, err = policy.New(string(name), mc)
		if err != nil {
			return nil, fmt.Errorf("rt: %w", err)
		}
	}
	r := &Runtime{
		cfg:      cfg,
		ladder:   mc.Freqs,
		pol:      pol,
		env:      policy.Env{Cfg: mc},
		prof:     profile.New(mc.Freqs),
		levels:   make([]int, cfg.Workers),
		workers:  make([]worker, cfg.Workers),
		depths:   make([]int, cfg.Workers),
		classIDs: make(map[string]int32),
		ro:       newRTObs(cfg.Obs, len(mc.Freqs)),
		inv:      cfg.Invariants || check.BuildEnabled,
	}
	for id := range r.workers {
		w := &r.workers[id]
		w.r, w.id = r, id
		// Each worker's own permutation buffer: walkers run at once.
		w.walker = r.order.Walker(id, make([]int, cfg.Workers))
		w.spawn = func() {
			w.run()
			r.wg.Done()
		}
	}
	return r, nil
}

// Stats returns the accumulated run statistics.
func (r *Runtime) Stats() RunStats { return r.stats }

// Violations returns the invariant violations collected so far (always
// empty unless Config.Invariants or the eewa_check build tag enabled
// checking). A healthy runtime returns an empty slice forever.
func (r *Runtime) Violations() []check.Violation {
	return append([]check.Violation(nil), r.violations...)
}

// record registers invariant violations on the runtime and the metrics
// registry.
func (r *Runtime) record(vs []check.Violation) {
	if len(vs) == 0 {
		return
	}
	r.violations = append(r.violations, vs...)
	for _, v := range vs {
		r.ro.violation(v.Invariant)
	}
}

// Census returns the current per-level worker counts.
func (r *Runtime) Census() []int {
	census := make([]int, len(r.ladder))
	for _, l := range r.levels {
		census[l]++
	}
	return census
}

// RunBatch executes one batch of tasks and blocks until all complete.
// Between batches the policy plans: under EEWA that means running the
// workload-aware frequency adjuster on the previous batch's profile.
// The caller's goroutine runs worker 0; workers 1..n-1 are spawned for
// the batch and have all returned when RunBatch does.
func (r *Runtime) RunBatch(tasks []Task) BatchStats {
	if len(tasks) == 0 {
		return BatchStats{Census: r.Census()}
	}
	r.planBatch()
	r.place(tasks)

	n := r.cfg.Workers
	r.start = time.Now()
	r.wg.Add(n - 1)
	for id := 1; id < n; id++ {
		go r.workers[id].spawn()
	}
	r.workers[0].run()
	r.wg.Wait()
	wall := time.Since(r.start)

	// Fold the workers' plain counters, in worker order (which fixes the
	// profiler's first-seen class order for a given per-worker outcome).
	// Energy comes from the shared power model: busy and work search at
	// the worker's level, the dry tail at the out-of-work level the
	// policy chose, the remainder as halted. When the modeled states
	// overrun the measured wall (duty-cycle stretch rounding) the overrun
	// is an explicit residual — clipping it silently would hide
	// double-counting from the energy identity.
	pm := r.cfg.Machine.Power
	wallS := wall.Seconds()
	bs := BatchStats{
		Wall:    wall,
		Tasks:   len(tasks),
		Census:  r.Census(),
		Levels:  append([]int(nil), r.levels...),
		Energy:  pm.Base * wallS,
		Workers: make([]WorkerSecs, n),
		Classes: make(map[string]ClassStats, len(r.classNames)),
	}
	var busyTot, spinTot, haltTot float64
	for id := range r.workers {
		w := &r.workers[id]
		level := r.levels[id]
		busyPower := pm.CorePower(machine.Busy, level, level, r.ladder)
		for cid, a := range w.acc {
			if a.tasks == 0 {
				continue
			}
			name := r.classNames[cid]
			cs := bs.Classes[name]
			cs.BusySecs += a.secs
			cs.EnergyJ += a.secs * busyPower
			bs.Classes[name] = cs
			r.prof.RecordBulk(name, a.tasks, a.secs, a.max, level)
		}
		busy := time.Duration(w.busyNS).Seconds()
		search := time.Duration(w.searchNS).Seconds()
		dry := (wall - time.Duration(w.dryNS)).Seconds()
		halt := wallS - busy - search - dry
		residual := max(0, -halt)
		halt = max(0, halt)
		bs.Workers[id] = WorkerSecs{Busy: busy, Search: search, Dry: dry, Halt: halt, Residual: residual}
		bs.Residual += residual
		busyTot += busy
		spinTot += search + dry
		haltTot += halt
		// The live runtime has no package topology: use own-level
		// voltage (PackageSize 1 semantics).
		bs.Energy += busy * busyPower
		bs.Energy += search * pm.CorePower(machine.Spinning, level, level, r.ladder)
		bs.Energy += dry * pm.CorePower(machine.Spinning, w.idleLevel, w.idleLevel, r.ladder)
		bs.Energy += halt * pm.CorePower(machine.Halted, level, level, r.ladder)
		bs.Steals += w.steals
		bs.Cancelled += w.cancelled
		if w.idleLevel != level {
			r.ro.dvfs.Inc()
		}
	}

	if r.batchIndex == 0 {
		r.env.IdealTime = wall.Seconds()
	}
	r.batchIndex++
	r.stats.Batches++
	r.stats.Tasks += len(tasks)
	r.stats.Wall += wall
	r.stats.Energy += bs.Energy
	r.ro.observeBatch(bs, busyTot, spinTot, haltTot, r.depths)
	if r.inv {
		counts := make([]int32, len(tasks))
		for i := range counts {
			counts[i] = r.slots[i].acquired.Load()
		}
		r.record(check.TaskConservation(counts))
		// Tolerance: the identity is exact by construction up to float
		// rounding; the residual itself must stay negligible. Timer
		// quantization bounds per-interval error at well under a
		// millisecond per task, so a whole millisecond plus a small
		// fraction of the wall is a conservative ceiling.
		tol := 1e-3 + 0.01*wallS
		for id, ws := range bs.Workers {
			r.record(check.EnergyIdentity(id, wallS, ws.Busy, ws.Search, ws.Dry, ws.Halt, ws.Residual, tol))
		}
	}
	// Drop the pointers into the caller's slab: it may be reused or
	// garbage before the next batch overwrites them.
	for i := range tasks {
		r.slots[i].task = nil
	}
	return bs
}

// planBatch asks the policy for the batch's plan (under EEWA: the
// frequency adjuster over the previous batch's profile) and applies
// the resulting assignment to the workers.
func (r *Runtime) planBatch() {
	plan := r.pol.BeginBatch(r.batchIndex, r.prof, &r.env)
	r.prof.Reset()
	if plan.Assignment == nil {
		panic(fmt.Sprintf("rt: policy %s returned nil assignment for batch %d", r.pol.Name(), r.batchIndex))
	}
	r.plan = plan
	r.asn = plan.Assignment
	if plan.Adjusted && r.ro.reg != nil {
		r.ro.adjInv.Inc()
		r.ro.adjHost.Add(plan.HostTime.Seconds())
		r.ro.idealTime.Observe(plan.IdealTime)
		if plan.CacheHit {
			r.ro.planHits.Inc()
		} else {
			r.ro.planMisses.Inc()
		}
		if plan.Infeasible {
			r.ro.adjInfeasible.Inc()
		}
	}
	if r.inv {
		r.record(check.PlanFeasible(r.plan.Assignment, r.cfg.Workers, len(r.ladder)))
	}
	r.applyLevels()
}

func (r *Runtime) applyLevels() {
	transitions := 0
	for w := range r.levels {
		next := r.asn.FreqOf(w)
		if next != r.levels[w] {
			transitions++
		}
		r.levels[w] = next
	}
	// The very first application clocks workers from their zero-value
	// level, which is not a transition.
	if r.batchIndex > 0 {
		r.ro.dvfs.Add(float64(transitions))
	}
}

// place readies the batch, single-threaded: it interns the tasks' class
// names into per-batch ids, places every task per the plan's discipline
// (scatter, or by class over each class's reserved placement cores —
// shared with the sim), points the steal order the workers' victim
// walkers share at the plan and zeroes the workers' batch state.
func (r *Runtime) place(tasks []Task) {
	n, u := r.cfg.Workers, r.asn.U()
	if len(r.pools) != n || len(r.pools[0]) != u {
		r.pools = make([][]*deque.Chase[slot], n)
		for w := range r.pools {
			r.pools[w] = make([]*deque.Chase[slot], u)
			for g := range r.pools[w] {
				r.pools[w][g] = deque.NewChase[slot]()
			}
		}
	}
	if len(r.slots) < len(tasks) {
		r.slots = make([]slot, len(tasks))
	}

	clear(r.classIDs)
	r.classNames = r.classNames[:0]
	lastID := int32(-1) // the previous task's class: runs of one class skip the map
	for i := range tasks {
		t := &tasks[i]
		if lastID < 0 || t.Class != r.classNames[lastID] {
			id, ok := r.classIDs[t.Class]
			if !ok {
				id = int32(len(r.classNames))
				r.classIDs[t.Class] = id
				r.classNames = append(r.classNames, t.Class)
			}
			lastID = id
		}
		s := &r.slots[i]
		s.task, s.cid = t, lastID
		if r.inv {
			s.acquired.Store(0)
		}
	}
	if r.ro.reg != nil {
		// Resolved once per class per batch (the family mutex is paid
		// here); workers then Observe lock-free per task.
		r.classHist = r.classHist[:0]
		for _, name := range r.classNames {
			r.classHist = append(r.classHist, r.ro.execHist(name))
		}
	}

	clear(r.depths)
	r.placer.Reset(&r.plan, n, r.classNames)
	for i := range tasks {
		s := &r.slots[i]
		w, g := r.placer.Place(s.cid)
		r.pools[w][g].PushBottomRef(s)
		r.depths[w]++
	}

	r.order.Reset(&r.plan)
	for id := range r.workers {
		w := &r.workers[id]
		w.acc = slices.Grow(w.acc[:0], len(r.classNames))[:len(r.classNames)]
		clear(w.acc)
	}
}

// now is the current batch's clock: nanoseconds since its start, one
// monotonic clock read.
func (r *Runtime) now() int64 { return int64(time.Since(r.start)) }

// run is one worker's part of a batch. It takes tasks — its own pool
// first, then the policy's victim order — until every pool it can reach
// is empty, then records its dry instant, applies the policy's
// out-of-work action and returns: tasks are never pushed mid-batch, so
// a pool seen empty stays empty and there is nothing to wait for. The
// batch therefore ends when its last task does.
//
// A worker below F0 is throttled by debt: each task adds dur×(ratio−1),
// the debt is slept off once it reaches throttleQuantum, the measured
// sleep (overshoot included) is subtracted so physical time converges
// on the modelled Σ dur×ratio, and the remainder is yielded away before
// the worker leaves.
func (w *worker) run() {
	r := w.r
	level := r.levels[w.id]
	ratio := r.ladder.Ratio(level)
	local := r.pools[w.id][r.asn.CoreGroup[w.id]]
	w.rng.Seed(r.cfg.Seed + uint64(w.id)*0x9E3779B97F4A7C15 + uint64(r.batchIndex))
	w.steals, w.cancelled = 0, 0

	var busy, search, debt int64
	last := r.now() // end of the last accounted interval
	for {
		s, stolen, retry := w.acquire(local)
		if s == nil {
			if retry {
				continue // a pool still held work: a steal lost its race
			}
			break
		}
		if stolen {
			w.steals++
		}
		if r.inv {
			s.acquired.Add(1)
		}
		t := s.task
		// Acquired-but-cancelled: the submission layer withdrew the task
		// (e.g. its deadline expired while it waited in a pool). It
		// still counts as acquired exactly once.
		if t.Cancelled != nil && t.Cancelled() {
			w.cancelled++
			continue
		}

		t0 := r.now()
		t.Run()
		t1 := r.now()
		search += t0 - last
		last = t1
		wall := int64(float64(t1-t0) * ratio) // ratio is exactly 1 at F0
		busy += wall
		if debt += wall - (t1 - t0); debt >= throttleQuantum {
			sleep(time.Duration(debt))
			last = r.now()
			debt -= last - t1
		}
		secs := time.Duration(wall).Seconds()
		a := &w.acc[s.cid]
		a.tasks++
		a.secs += secs
		a.max = max(a.max, secs)
		if r.classHist != nil {
			r.classHist[s.cid].Observe(secs)
		}
	}
	now := r.now()
	search += now - last
	for end := now + debt; now < end; now = r.now() {
		runtime.Gosched() // sub-quantum debt: too short to sleep
	}

	w.busyNS, w.searchNS, w.dryNS = busy, search, now
	w.idleLevel = level
	if act := r.pol.OutOfWork(w.id); act.FreqLevel >= 0 {
		w.idleLevel = act.FreqLevel
	}
}

// acquire finds the worker's next task: its local pool first, then the
// remote pools in the policy's victim order. With no task, retry
// reports that some probed pool was not empty — a failed steal is a
// lost race, not proof of emptiness, so the worker must scan again;
// without retry every pool the worker can reach was seen empty.
func (w *worker) acquire(local *deque.Chase[slot]) (s *slot, stolen, retry bool) {
	if s = local.PopBottomRef(); s != nil {
		return s, false, false
	}
	pools := w.r.pools
	w.walker.ForEachVictim(&w.rng, func(v, g int) bool {
		p := pools[v][g]
		if s = p.StealRef(); s != nil {
			return true
		}
		if p.Len() != 0 {
			retry = true
		}
		return false
	})
	return s, s != nil, retry
}
