package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/rt"
	"repro/internal/serve"
	"repro/internal/traffic"
)

// The traced run. It repeats a workload with Config.Obs set,
// Invariants on and harness-side spans around every call into a layer,
// and spends the rest of the window on probes that time one layer
// through its public functions. End-to-end metrics never come from here.

// share is the part of a traced window one phase gets.
func share(c *runCtx, part float64) time.Duration {
	return time.Duration(part * float64(c.window()))
}

// timeLoop calls fn until budget has passed (at least once) and returns
// the calls made and the time they took.
func timeLoop(budget time.Duration, fn func()) (int, time.Duration) {
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if el := time.Since(start); el >= budget {
			return n, el
		}
	}
}

// kernelControl times the workloads' kernels on one thread. No change to
// this repository should move these: if they differ between two commits
// the host drifted and the comparison is void.
func kernelControl(out *outcome) map[string]float64 {
	runtime.GC() // what the workload left on the heap is not the kernels' to collect
	text256, text4k := kernels.TextCorpus(1, 256), kernels.TextCorpus(1, 4<<10)
	structured4k := kernels.StructuredCorpus(1, 4<<10)
	image := kernels.GradientImage(1, 64, 64) // what serve builds for je/4096
	probes := []struct {
		name string
		fn   func()
	}{
		{"sha1_256", func() { d := kernels.SHA1(text256); kernels.KeepAlive(d[:]) }},
		{"sha1_4k", func() { d := kernels.SHA1(text4k); kernels.KeepAlive(d[:]) }},
		{"lzw_4k", func() { kernels.KeepAlive(kernels.LZWCompress(text4k)) }},
		{"dmc_4k", func() { kernels.KeepAlive(kernels.DMCCompress(structured4k)) }},
		{"je_4k", func() {
			if b, err := kernels.EncodeJPEGish(image, 75); err == nil {
				kernels.KeepAlive(b)
			}
		}},
	}
	us := map[string]float64{}
	for _, p := range probes {
		best := 0.0
		for round := 0; round < 3; round++ {
			n, el := timeLoop(5*time.Millisecond, p.fn)
			if v := float64(el.Nanoseconds()) / 1e3 / float64(n); round == 0 || v < best {
				best = v
			}
		}
		us[p.name] = best
		out.set("kernels.us_per_task_"+p.name, best)
	}
	return us
}

// adjustProbe times core.Adjuster.Adjust on class sets, cold (no plan
// cache, so Algorithm 1 runs every time) and memoized, and counts the
// search steps of the cold decisions.
func adjustProbe(out *outcome, cores int, sets []*profile.Snapshot, rec *recorder) error {
	if len(sets) == 0 {
		return nil
	}
	ladder := cfgMachine().Freqs
	cold, err := core.NewAdjuster(ladder, cores)
	if err != nil {
		return err
	}
	cold.Cache = nil
	warm, err := core.NewAdjuster(ladder, cores)
	if err != nil {
		return err
	}
	steps := 0
	for _, s := range sets {
		t0 := rec.now()
		cold.Adjust(s.Classes, s.T)
		rec.add("Adjust", t0, rec.now(), -1, -1)
		steps += cold.LastSteps
		warm.Adjust(s.Classes, s.T)
	}
	each := func(a *core.Adjuster) func() {
		return func() {
			for _, s := range sets {
				a.Adjust(s.Classes, s.T)
			}
		}
	}
	n, el := timeLoop(5*time.Millisecond, each(cold))
	out.set("policy.plan_us_per_batch", float64(el.Nanoseconds())/1e3/float64(n*len(sets)))
	n, el = timeLoop(5*time.Millisecond, each(warm))
	out.set("policy.plan_cached_us_per_batch", float64(el.Nanoseconds())/1e3/float64(n*len(sets)))
	out.set("cctable.search_steps", float64(steps))
	return nil
}

func counterOf(reg *obs.Registry, name string, labels ...string) float64 {
	switch m := reg.At(name, labels...).(type) {
	case *obs.Counter:
		return m.Value()
	case *obs.Gauge:
		return m.Value()
	}
	return 0
}

// histSum adds up the "sum" of every child of a labelled log-histogram
// family in a registry snapshot.
func histSum(snap map[string]any, family string) float64 {
	kids, _ := snap[family].(map[string]any)
	total := 0.0
	for _, kid := range kids {
		if m, ok := kid.(map[string]any); ok {
			if s, ok := m["sum"].(float64); ok {
				total += s
			}
		}
	}
	return total
}

// liveLayers fills the rt, policy and kernels-share metrics of a traced
// serve run from the registry the server wrote to.
func liveLayers(out *outcome, reg *obs.Registry, windowS float64) {
	batches := counterOf(reg, "eewa_rt_batches_total")
	wall := counterOf(reg, "eewa_rt_wall_seconds_total")
	if batches > 0 && wall > 0 {
		coreSecs := wall * cfgWorkers
		out.set("rt.batch_wall_mean_us", wall/batches*1e6)
		out.set("rt.busy_share", counterOf(reg, "eewa_rt_worker_busy_seconds_total")/coreSecs)
		// The registry keeps search and post-dry spin as one idle counter.
		out.set("rt.search_share", counterOf(reg, "eewa_rt_worker_idle_seconds_total")/coreSecs)
		out.set("rt.halt_share", counterOf(reg, "eewa_rt_worker_barrier_seconds_total")/coreSecs)
		out.set("rt.residual_s", counterOf(reg, "eewa_rt_energy_residual_seconds_total"))
		out.set("rt.steals_per_batch", counterOf(reg, "eewa_rt_steals_total")/batches)
		out.set("policy.dvfs_transitions_per_batch", counterOf(reg, "eewa_rt_dvfs_transitions_total")/batches)
	}
	out.set("policy.adjuster_host_share", counterOf(reg, "eewa_rt_adjuster_host_seconds_total")/windowS)
	mode := 0.0
	for j := range cfgMachine().Freqs {
		if v := counterOf(reg, "eewa_rt_census_workers", fmt.Sprint(j)); v > mode {
			mode = v
		}
	}
	out.set("policy.census_mode_share", mode/cfgWorkers)
	snap := reg.Snapshot()
	if e2e := histSum(snap, "eewa_serve_e2e_seconds"); e2e > 0 {
		out.set("kernels.share_of_job", histSum(snap, "eewa_serve_exec_seconds")/e2e)
	}
}

// serveCounters fills the route/admit/batch metrics a live server's
// public counters give.
func serveCounters(out *outcome, srv *serve.Server, sent int, windowS float64) {
	st := srv.Stats()
	lat := srv.LatencySummary()
	out.set("serve.queue_wait_p50_ms", lat.QueueP50*1e3)
	out.set("serve.queue_wait_p99_ms", lat.QueueP99*1e3)
	if st.Batches > 0 {
		out.set("serve.tasks_per_batch", float64(st.Tasks)/float64(st.Batches))
	}
	out.set("serve.batches_per_s", float64(st.Batches)/windowS)
	out.set("serve.rejected_share", float64(st.Rejected)/float64(sent))
	out.set("serve.timeout_share", float64(st.Timeouts)/float64(sent))
}

// lockstep drives a ManualFlush server round by round on this
// goroutine: Submit every job of the round, Flush, Wait for each. With
// no batcher goroutine in the way, a span around each call is that
// call's cost alone; a Flush's self time is its span minus the time the
// runtime reports for the batches it ran. rounds returns nil to stop.
func lockstep(out *outcome, cfg serve.Config, rounds func() []serve.JobRequest, budget time.Duration, rec *recorder) error {
	cfg.ManualFlush = true
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer drain(srv)
	var submitNS, flushSelfNS int64
	var jobs, batches uint64
	var pend []*serve.Pending
	m0 := mallocs()
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		round := rounds()
		if round == nil {
			break
		}
		pend = pend[:0]
		for k := range round {
			t0 := time.Now()
			r0 := rec.now()
			p, rej := srv.Submit(round[k])
			submitNS += int64(time.Since(t0))
			rec.add("Submit", r0, rec.now(), -1, int32(jobs))
			jobs++
			if rej != nil {
				return fmt.Errorf("lockstep job refused: %d %s", rej.Status, rej.Msg)
			}
			pend = append(pend, p)
		}
		wall0, b0 := srv.Runtime().Stats().Wall, srv.Stats().Batches
		t0 := time.Now()
		r0 := rec.now()
		srv.Flush()
		el := time.Since(t0)
		rtWall := srv.Runtime().Stats().Wall - wall0
		// The runtime's share of the Flush, from its own account, laid at
		// the start of the span: the harness cannot see inside Flush.
		fl := rec.add("Flush", r0, rec.now(), -1, int32(i))
		rec.add("rt.RunBatch", r0, r0+int64(rtWall), fl, int32(i))
		flushSelfNS += int64(el - rtWall)
		batches += srv.Stats().Batches - b0
		for _, p := range pend {
			r0 := rec.now()
			st, _, msg := p.Wait()
			rec.add("Wait", r0, rec.now(), -1, int32(i))
			if st != http.StatusOK {
				return fmt.Errorf("lockstep job failed: %d %s", st, msg)
			}
		}
	}
	allocs := mallocs() - m0
	if jobs == 0 || batches == 0 {
		return fmt.Errorf("lockstep replay ran nothing")
	}
	out.set("serve.submit_us_per_job", float64(submitNS)/1e3/float64(jobs))
	out.set("serve.flush_self_us_per_batch", float64(flushSelfNS)/1e3/float64(batches))
	out.set("serve.submit_allocs_per_job", float64(allocs)/float64(jobs))
	return nil
}

// ingestProbe posts requests whose deadline is long past: the server
// reads and decodes the body, builds the job, refuses it at route time
// with a static 504 and never queues it. That is the ingest path and
// nothing else. single holds one-job bodies, batch one 64-job body
// carrying jobsInBatch jobs.
func ingestProbe(out *outcome, cfg serve.Config, single [][]byte, batch []byte, jobsInBatch int, budget time.Duration) error {
	cfg.ManualFlush = true
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer drain(srv)
	h := srv.Handler()
	one := newCaller(h, "/v1/jobs")
	i, bad := 0, 0
	n, el := timeLoop(budget, func() {
		if one.post(single[i%len(single)]) != http.StatusGatewayTimeout {
			bad++
		}
		i++
	})
	if bad > 0 {
		return fmt.Errorf("ingest probe: %d of %d expired jobs were not answered 504", bad, n)
	}
	out.set("serve.ingest_us_per_req", float64(el.Nanoseconds())/1e3/float64(n))
	many := newCaller(h, batchPath)
	n, el = timeLoop(budget, func() {
		if many.post(batch) != http.StatusGatewayTimeout {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("ingest probe: %d of %d expired batches were not answered 504", bad, n)
	}
	out.set("serve.ingest_batch_us_per_job", float64(el.Nanoseconds())/1e3/float64(n*jobsInBatch))
	return nil
}

// traceServeOpen is the traced run of serve-mixed: the live replay with the registry and spans on for half the window, then
// the lockstep replay and the ingest, planner and kernel probes.
func traceServeOpen(c *runCtx, ld *openLoad) (*outcome, error) {
	live := *c
	live.seconds = 0.5 * c.seconds
	env, err := buildOpen(ld, &live)
	if err != nil {
		return nil, err
	}
	genAllocs, genNS := harnessCost(env.sched, env.nWarm)
	r := measureOpen(env, ld, &live)
	if err := drain(env.srv); err != nil {
		return nil, err
	}
	if err := r.valid(c); err != nil {
		return nil, err
	}
	if err := checkServe(env.srv, env.warmOK+r.ok, env.warmExpired+r.expired, true); err != nil {
		return nil, err
	}
	out := newOutcome(int64(r.sent), int64(r.sent-r.ok))
	out.set("traffic.generate_s", env.genS)
	out.set("gen.late_share", r.lateShare)
	out.set("gen.max_late_ms", r.maxLateMS)
	out.set("gen.allocs_per_job", genAllocs)
	out.set("gen.ns_per_job", genNS)
	out.set("serve.http_allocs_per_job", float64(r.allocs)/float64(r.ok)-genAllocs)
	life := ld.warmS + r.windowS
	serveCounters(out, env.srv, len(env.sched.dueNS), life)
	out.set("serve.batcher_busy_share", env.srv.Runtime().Stats().Wall.Seconds()/life)
	liveLayers(out, env.reg, life)
	out.notef("traced live window %.1f s: job p50 %.4f ms, p99 %.4f ms, %d of %d answered 200",
		r.windowS, quantileSorted(r.latOK, 0.50), quantileSorted(r.latOK, 0.99), r.ok, r.sent)

	// Lockstep: the same trace, one round per flush interval.
	cfg := serveConfig(ld.policy)
	cfg.Offline = env.offline
	cfg.Invariants = true
	evs := env.trace.Events
	next := 0
	tickS := cfgFlushEvery.Seconds()
	var round []serve.JobRequest
	err = lockstep(out, cfg, func() []serve.JobRequest {
		if next >= len(evs) {
			return nil
		}
		round = round[:0]
		edge := (float64(int(evs[next].OffsetS/tickS)) + 1) * tickS
		for next < len(evs) && evs[next].OffsetS < edge {
			round = append(round, jobRequestOf(&evs[next]))
			next++
		}
		return round
	}, share(c, 0.2), c.rec)
	if err != nil {
		return nil, err
	}

	const probeJobs = 1024
	expired, err := scheduleOf(&traffic.Trace{Events: env.trace.Events[:min(probeJobs, len(env.trace.Events))]}, true)
	if err != nil {
		return nil, err
	}
	first := env.trace.Events[:min(cfgMaxBatch, len(env.trace.Events))]
	batch, err := batchBodyOf(first, true)
	if err != nil {
		return nil, err
	}
	if err := ingestProbe(out, cfg, expired.bodies, batch, len(first), share(c, 0.05)); err != nil {
		return nil, err
	}
	if env.offline != nil {
		if err := adjustProbe(out, cfgWorkers, []*profile.Snapshot{env.offline}, c.rec); err != nil {
			return nil, err
		}
	}
	kernelControl(out)
	return out, nil
}

// traceServeBatch is the traced run of serve-batch: the closed loop
// with tracing off, then on — the difference is the cost of
// observability — then the lockstep and ingest probes.
func traceServeBatch(c *runCtx) (*outcome, error) {
	plain := *c
	plain.rec = nil
	off, err := buildBatch(&plain, false)
	if err != nil {
		return nil, err
	}
	rOff := measureClosed(off, share(c, 0.3), nil)
	if err := drain(off.srv); err != nil {
		return nil, err
	}
	if err := checkServe(off.srv, off.warmOK+rOff.okAll, 0, false); err != nil {
		return nil, err
	}

	env, err := buildBatch(c, true)
	if err != nil {
		return nil, err
	}
	genAllocs := batchGenAllocs(env.bodies)
	r := measureClosed(env, share(c, 0.3), c.rec)
	if err := drain(env.srv); err != nil {
		return nil, err
	}
	if err := checkServe(env.srv, env.warmOK+r.okAll, 0, true); err != nil {
		return nil, err
	}
	if len(r.lat) == 0 || len(rOff.lat) == 0 {
		return nil, fmt.Errorf("a closed-loop window completed no request")
	}
	out := newOutcome(int64(r.okAll+r.bad), int64(r.bad))
	capOff, capOn := rOff.capacity(), r.capacity()
	out.set("obs.overhead_share", (capOff-capOn)/capOff)
	out.set("gen.allocs_per_job", genAllocs)
	out.set("serve.http_allocs_per_job", float64(r.allocs)/float64(r.okAll)-genAllocs)
	sent := env.warmOK + r.okAll + r.bad
	life := batchWarm.Seconds() + r.windowS
	serveCounters(out, env.srv, sent, life)
	out.set("serve.batcher_busy_share", env.srv.Runtime().Stats().Wall.Seconds()/life)
	liveLayers(out, env.reg, life)
	out.notef("capacity %.0f jobs/s with tracing off, %.0f with the registry, invariants and spans on", capOff, capOn)

	cfg := serveConfig(policy.IDCilk)
	cfg.Invariants = true
	clients, err := batchEvents(c.seed)
	if err != nil {
		return nil, err
	}
	var evs []traffic.Event
	var jobs []serve.JobRequest
	for _, client := range clients {
		for i := range client {
			evs = append(evs, client[i])
			jobs = append(jobs, jobRequestOf(&client[i]))
		}
	}
	if err := lockstep(out, cfg, func() []serve.JobRequest { return jobs }, share(c, 0.15), c.rec); err != nil {
		return nil, err
	}
	expired, err := scheduleOf(&traffic.Trace{Events: evs}, true)
	if err != nil {
		return nil, err
	}
	expiredBatch, err := batchBodyOf(clients[0], true)
	if err != nil {
		return nil, err
	}
	if err := ingestProbe(out, cfg, expired.bodies, expiredBatch, cfgMaxBatch, share(c, 0.05)); err != nil {
		return nil, err
	}
	kernelControl(out)
	return out, nil
}

// traceRTIter is the traced run of rt-iter: the loop with every payload
// timed by the harness, which is what splits a batch's wall into payload
// and everything else, then the fine-grain probes.
func traceRTIter(c *runCtx) (*outcome, error) {
	env, err := buildRTIter(c)
	if err != nil {
		return nil, err
	}
	r := loopBatches(env.r, env.batch, share(c, 0.45), c, true)
	if err := env.batch.check(int64(env.warmed + r.batches)); err != nil {
		return nil, err
	}
	if vs := env.r.Violations(); len(vs) > 0 {
		return nil, fmt.Errorf("%d runtime invariant violations, first: %v", len(vs), vs[0])
	}
	if r.batches < c.floor(minReps) {
		return nil, fmt.Errorf("%d batches completed, need %d", r.batches, minReps)
	}
	submitted := r.batches * rtIterTasks
	out := newOutcome(int64(submitted), int64(submitted-r.tasks))

	// Payload time comes from the spans the loop recorded; a dropped span
	// would undercount it, so the sums are kept apart from the record.
	var coreSecs, busy, search, dry, halt, residual, wallS float64
	steals := 0
	for _, bs := range r.stats {
		wallS += bs.Wall.Seconds()
		coreSecs += bs.Wall.Seconds() * float64(len(bs.Workers))
		for _, ws := range bs.Workers {
			busy += ws.Busy
			search += ws.Search
			dry += ws.Dry
			halt += ws.Halt
		}
		residual += bs.Residual
		steals += bs.Steals
	}
	payloadS := float64(env.batch.payloadNS.Load()) / 1e9
	out.set("rt.batch_wall_mean_us", wallS/float64(r.batches)*1e6)
	out.set("rt.nonpayload_share", (coreSecs-payloadS)/coreSecs)
	out.set("rt.nonpayload_us_per_task", (coreSecs-payloadS)/float64(r.tasks)*1e6)
	out.set("rt.busy_share", busy/coreSecs)
	out.set("rt.search_share", search/coreSecs)
	out.set("rt.dry_share", dry/coreSecs)
	out.set("rt.halt_share", halt/coreSecs)
	out.set("rt.residual_s", residual)
	out.set("rt.steals_per_batch", float64(steals)/float64(r.batches))
	out.set("rt.allocs_per_batch", float64(r.allocs)/float64(r.batches)) // with the invariant bookkeeping on
	out.notef("traced loop: %d batches, RunBatch p50 %.1f us, ideal %.1f us (payload / %d workers)", r.batches,
		1e3*quantileSorted(r.callMS, 0.50), payloadS/float64(r.batches)/cfgWorkers*1e6, cfgWorkers)

	us := kernelControl(out)
	out.set("kernels.share_of_job", payloadS/cfgWorkers/(r.windowS))

	// The same batch under eewa, its ideal time pinned offline the way
	// serve-mixed pins it.
	work := us["sha1_4k"] / 1e6
	snap := &profile.Snapshot{
		Freqs:   append([]float64(nil), cfgMachine().Freqs...),
		T:       1.25 * rtIterTasks * work / cfgWorkers,
		Classes: []profile.Class{{Name: "sha1", Count: rtIterTasks, AvgWork: work, MaxWork: work}},
	}
	if err := adjustProbe(out, cfgWorkers, []*profile.Snapshot{snap}, c.rec); err != nil {
		return nil, err
	}
	plain := *c
	plain.rec = nil
	probe := func(pol rt.Policy, impl policy.Policy, n, size int, part float64) (*iterRun, error) {
		b := newRTBatch(c.seed, n, size, nil)
		rtm, err := newRuntime(pol, impl, false)
		if err != nil {
			return nil, err
		}
		for i := 0; i < rtWarmup; i++ {
			rtm.RunBatch(b.tasks)
		}
		run := loopBatches(rtm, b, share(c, part), &plain, false)
		return run, b.check(int64(rtWarmup + run.batches))
	}
	meanUS := func(run *iterRun) float64 { return run.windowS / float64(run.batches) * 1e6 }
	eewa := policy.NewEEWA()
	eewa.Offline = snap
	iterEEWA, err := probe(rt.PolicyEEWA, eewa, rtIterTasks, rtIterSize, 0.09)
	if err != nil {
		return nil, err
	}
	iterCilk, err := probe(rt.PolicyCilk, nil, rtIterTasks, rtIterSize, 0.09)
	if err != nil {
		return nil, err
	}
	out.set("rt.eewa_over_cilk_iter", meanUS(iterEEWA)/meanUS(iterCilk))
	fine := map[string]*iterRun{}
	for _, p := range []struct {
		key string
		pol rt.Policy
		n   int
	}{{"256c", rt.PolicyCilk, 256}, {"256e", rt.PolicyEEWA, 256}, {"16c", rt.PolicyCilk, 16}, {"16e", rt.PolicyEEWA, 16}} {
		if fine[p.key], err = probe(p.pol, nil, p.n, 256, 0.09); err != nil {
			return nil, err
		}
	}
	perTaskUS := func(run *iterRun) float64 { return run.windowS / float64(run.tasks) * 1e6 }
	out.set("rt.fine256_us_per_task_cilk", perTaskUS(fine["256c"]))
	out.set("rt.fine256_us_per_task_eewa", perTaskUS(fine["256e"]))
	out.set("rt.fine16_batch_us_cilk", meanUS(fine["16c"]))
	out.set("rt.fine16_batch_us_eewa", meanUS(fine["16e"]))
	out.set("rt.eewa_over_cilk_fine", meanUS(fine["16e"])/meanUS(fine["16c"]))
	return out, nil
}

// traceSim is the traced run of the sim workloads: the matrix with the
// full results kept, which hold the exact counts, then the planner and
// event-queue probes.
func traceSim(c *runCtx, warm func() (*simMatrix, error)) (*outcome, error) {
	m, err := warm()
	if err != nil {
		return nil, err
	}
	run, err := loopMatrix(m, c, share(c, 0.6), true)
	if err != nil {
		return nil, err
	}
	if len(run.reps) < c.floor(minReps) {
		return nil, fmt.Errorf("%d repetitions completed, need %d", len(run.reps), minReps)
	}
	if err := m.verify(run.reps[0]); err != nil {
		return nil, err
	}
	out := newOutcome(int64(len(run.reps))*int64(m.tasks), 0)

	// Host time per policy, each cell at its steady time (cellQuantile); the
	// adjuster's share is of the whole, as the engine accounts it.
	cellMS := run.cellTimes(len(m.cells))
	hostMS, tasks := map[string]float64{}, map[string]int{}
	for i, cell := range m.cells {
		hostMS[cell.pol] += cellMS[i]
		tasks[cell.pol] += cell.tasks
	}
	for _, pol := range simPolicies {
		if tasks[pol] > 0 {
			out.set("sched.host_ns_per_task_"+pol, hostMS[pol]*1e6/float64(tasks[pol]))
		}
	}
	var adjusterNS, allNS int64
	for _, r := range run.reps {
		for i := range m.cells {
			allNS += r.hostNS[i]
			adjusterNS += int64(r.results[i].AdjusterHostTime)
		}
	}
	out.set("policy.adjuster_host_share", float64(adjusterNS)/float64(allNS))

	// Exact counts, from the first repetition: every repetition simulates
	// the same thing.
	var steals, probes, migrated, dvfs, batches int
	census := make([]int, len(cfgMachine().Freqs))
	var plans []*profile.Snapshot
	for i, res := range run.reps[0].results {
		steals += res.Steals
		probes += res.Probes
		migrated += res.Migrated
		if m.cells[i].pol != policy.IDEEWA {
			continue
		}
		dvfs += res.DVFSTransitions
		batches += len(res.BatchCensus)
		for _, bc := range res.BatchCensus {
			for j, n := range bc {
				census[j] += n
			}
		}
		if res.Profile != nil {
			plans = append(plans, res.Profile)
		}
	}
	out.set("sched.steals_per_task", float64(steals)/float64(m.tasks))
	out.set("sched.probes_per_task", float64(probes)/float64(m.tasks))
	out.set("sched.migrated_share", float64(migrated)/float64(m.tasks))
	mode, total := 0, 0
	for _, n := range census {
		total += n
		if n > mode {
			mode = n
		}
	}
	if total > 0 {
		out.set("policy.census_mode_share", float64(mode)/float64(total))
		out.set("policy.dvfs_transitions_per_batch", float64(dvfs)/float64(batches))
	}
	saving, slowdown := m.savings(run.reps[0])
	out.set("sim.energy_saving_pct", saving)
	out.set("sim.slowdown_pct", slowdown)
	if err := adjustProbe(out, cfgMachine().Cores, plans, c.rec); err != nil {
		return nil, err
	}
	out.set("event.ns_per_event", eventProbe(share(c, 0.1)))

	// The other regime of the same engine: 3 batches x 4096 one-class
	// tasks, where the per-task event path is the whole bill and planning
	// vanishes. An event or task.SoA change shows here first.
	deep, err := deepMatrix(c.seed)
	if err != nil {
		return nil, err
	}
	plain := *c
	plain.rec = nil
	deepRun, err := loopMatrix(deep, &plain, share(c, 0.1), false)
	if err != nil {
		return nil, err
	}
	if err := deep.verify(deepRun.reps[0]); err != nil {
		return nil, err
	}
	for i, ms := range deepRun.cellTimes(len(deep.cells)) {
		out.set("sched.deep_host_ns_per_task_"+deep.cells[i].pol, ms*1e6/float64(deep.cells[i].tasks))
	}
	kernelControl(out)
	return out, nil
}

// eventProbe drives an event.Queue the way the engine does — a few
// indexed events in flight, each completion scheduling the next — and
// returns host nanoseconds per event.
func eventProbe(budget time.Duration) float64 {
	const inFlight, perRound = 16, 1 << 16
	var fired uint64
	_, el := timeLoop(budget, func() {
		q := event.New()
		left := perRound
		q.SetIndexFn(func(v int32) {
			if left > 0 {
				left--
				q.AtIndex(q.Now()+1e-6*float64(1+v), v)
			}
		})
		for v := int32(0); v < inFlight; v++ {
			q.AtIndex(1e-6*float64(1+v), v)
		}
		for q.StepBatch() > 0 {
		}
		fired += q.Fired()
	})
	return float64(el.Nanoseconds()) / float64(fired)
}
