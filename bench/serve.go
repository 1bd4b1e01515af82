package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/traffic"
)

// classShape is one job shape of a serve workload.
type classShape struct {
	Class     string
	SizeBytes int
	Count     int
	Weight    float64
}

// openLoad describes an open-loop serve workload.
type openLoad struct {
	policy  string
	limit   time.Duration // a job answered later than this misses goodput
	warmS   float64       // schedule prefix replayed as warm-up, not measured
	classes []classShape
	spec    func(seed uint64, durationS float64) traffic.Spec
}

func mixOf(classes []classShape) []traffic.ClassMix {
	mix := make([]traffic.ClassMix, len(classes))
	for i, c := range classes {
		mix[i] = traffic.ClassMix{Class: c.Class, Weight: c.Weight, Count: c.Count, SizeBytes: c.SizeBytes}
	}
	return mix
}

// fineClasses is the one-task sha1/256B job serve-batch posts.
var fineClasses = []classShape{{Class: "sha1", SizeBytes: 256, Count: 1, Weight: 1}}

var mixedClasses = []classShape{
	{Class: "sha1", SizeBytes: 16 << 10, Count: 4, Weight: 0.40},
	{Class: "lzw", SizeBytes: 4 << 10, Count: 2, Weight: 0.30},
	{Class: "dmc", SizeBytes: 4 << 10, Count: 1, Weight: 0.15},
	{Class: "je", SizeBytes: 4 << 10, Count: 1, Weight: 0.15},
}

// serveMixed: three cohorts, 120 jobs/s in all — steady Poisson, a
// bursty MMPP-2 (24/s calm, 72/s in bursts, 36/s on average) and a
// Poisson cohort whose jobs carry deadlines. The deadlines are a second
// away, so the deadline path runs on every such job and none expires: at
// 250 ms one stall of the host expired a handful of jobs in one run and
// none in the next, and a benchmark's operations may not fail. The rate
// keeps the batcher about a third busy: at 200 jobs/s (0.56 busy) a
// slow phase of the host pushed it past 0.7 and the queue multiplied a
// 15 % slowdown into a doubled latency.
var serveMixed = &openLoad{
	policy:  policy.IDEEWA,
	limit:   50 * time.Millisecond,
	warmS:   0.3,
	classes: mixedClasses,
	spec: func(seed uint64, durationS float64) traffic.Spec {
		mix := mixOf(mixedClasses)
		return traffic.Spec{Name: "serve-mixed", DurationS: durationS, Seed: seed, Cohorts: []traffic.Cohort{
			{Tenant: "mix-steady", Arrival: traffic.Arrival{Kind: traffic.ArrivalPoisson, RateJPS: 60}, Mix: mix},
			{Tenant: "mix-bursty", Arrival: traffic.Arrival{Kind: traffic.ArrivalBursty, RateJPS: 24,
				BurstFactor: 3, MeanBurstS: 0.1, MeanCalmS: 0.3}, Mix: mix},
			{Tenant: "mix-deadline", Arrival: traffic.Arrival{Kind: traffic.ArrivalPoisson, RateJPS: 24}, Mix: mix,
				DeadlineMeanS: 1},
		}}
	},
}

// scheduleOf pre-encodes one request body per trace event. expired
// stamps every job with a deadline long past, which makes the server
// decode it, refuse it at route time with a static 504 and never queue
// it: the ingest path alone.
func scheduleOf(tr *traffic.Trace, expired bool) (*schedule, error) {
	s := &schedule{path: "/v1/jobs", dueNS: make([]int64, len(tr.Events)), bodies: make([][]byte, len(tr.Events))}
	for i := range tr.Events {
		ev := &tr.Events[i]
		req := jobRequestOf(ev)
		if expired {
			req.DeadlineMS, req.DeadlineAtMS = 0, 1
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encoding job %d: %w", i, err)
		}
		s.dueNS[i] = int64(ev.OffsetS * 1e9)
		s.bodies[i] = b
	}
	return s, nil
}

func jobRequestOf(ev *traffic.Event) serve.JobRequest {
	return serve.JobRequest{
		Tenant:     ev.Tenant,
		Func:       ev.Class,
		SizeBytes:  ev.SizeBytes,
		Count:      ev.Count,
		Seed:       ev.Seed,
		DeadlineMS: ev.DeadlineMS,
		WorkHintS:  ev.WorkHintS,
	}
}

// batchBodyOf encodes events as one POST /v1/jobs:batch body.
func batchBodyOf(evs []traffic.Event, expired bool) ([]byte, error) {
	breq := serve.BatchRequest{Jobs: make([]serve.JobRequest, len(evs))}
	for i := range evs {
		breq.Jobs[i] = jobRequestOf(&evs[i])
		if expired {
			breq.Jobs[i].DeadlineMS, breq.Jobs[i].DeadlineAtMS = 0, 1
		}
	}
	return json.Marshal(breq)
}

// calibrate times each class's kernel through a one-worker cilk server
// in lockstep (Submit, Flush, Wait) and builds the offline profile the
// eewa workload pins its ideal time with (paper §IV-D, the eewa-serve
// -profile-in path): T = 1.25 x the work of a 64-task batch in mix
// proportions, spread over the two workers. Without it EEWA's plan is a
// lottery on how long the first, cold batch happened to take.
func calibrate(classes []classShape, rec *recorder) (*profile.Snapshot, error) {
	cfg := serveConfig(policy.IDCilk)
	cfg.Workers = 1
	cfg.ManualFlush = true
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("calibration server: %w", err)
	}
	defer drain(srv)

	const batchTasks, rounds = 16, 5
	var shareSum float64
	for _, c := range classes {
		shareSum += c.Weight * float64(c.Count)
	}
	snap := &profile.Snapshot{Freqs: append([]float64(nil), cfgMachine().Freqs...)}
	var work float64
	for _, c := range classes {
		var perTask []float64
		for r := 0; r <= rounds; r++ {
			var pend []*serve.Pending
			tasks := 0
			for tasks < batchTasks {
				p, rej := srv.Submit(serve.JobRequest{Tenant: "calibrate", Func: c.Class,
					SizeBytes: c.SizeBytes, Count: c.Count, Seed: uint64(r*batchTasks + tasks)})
				if rej != nil {
					return nil, fmt.Errorf("calibration job refused: %d %s", rej.Status, rej.Msg)
				}
				pend = append(pend, p)
				tasks += c.Count
			}
			t0 := rec.now()
			srv.Flush()
			rec.add("Flush", t0, rec.now(), -1, -1)
			var batchMS float64
			for _, p := range pend {
				st, res, msg := p.Wait()
				if st != http.StatusOK {
					return nil, fmt.Errorf("calibration job failed: %d %s", st, msg)
				}
				batchMS = res.BatchMS
			}
			if r > 0 { // round 0 warms the kernel's tables and the pools
				perTask = append(perTask, batchMS/1e3/float64(tasks))
			}
		}
		avg := slices.Min(perTask) // the least disturbed round
		n := int(math.Round(cfgMaxBatch * c.Weight * float64(c.Count) / shareSum))
		if n < 1 {
			n = 1
		}
		snap.Classes = append(snap.Classes, profile.Class{Name: c.Class, Count: n, AvgWork: avg, MaxWork: avg})
		work += float64(n) * avg
	}
	sort.SliceStable(snap.Classes, func(a, b int) bool { return snap.Classes[a].AvgWork > snap.Classes[b].AvgWork })
	snap.T = 1.25 * work / cfgWorkers
	if err := snap.Validate(cfgMachine().Freqs); err != nil {
		return nil, fmt.Errorf("calibrated profile: %w", err)
	}
	return snap, nil
}

func drain(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// serveEnv is a built, warmed serve workload.
type serveEnv struct {
	srv         *serve.Server
	h           http.Handler
	reg         *obs.Registry
	trace       *traffic.Trace
	sched       *schedule
	nWarm       int // schedule entries [0, nWarm) were the warm-up
	warmOK      int // warm-up jobs answered 200
	warmExpired int // warm-up jobs answered 504
	offline     *profile.Snapshot
	genS        float64
}

// buildOpen is the open-loop workloads' set-up: generate the trace from
// the seed, encode the bodies, calibrate the offline profile (eewa),
// build the server and replay the warm-up prefix.
func buildOpen(ld *openLoad, c *runCtx) (*serveEnv, error) {
	env := &serveEnv{}
	t0 := c.rec.now()
	g0 := time.Now()
	tr, err := traffic.Generate(ld.spec(c.seed, ld.warmS+c.seconds))
	if err != nil {
		return nil, err
	}
	env.genS = time.Since(g0).Seconds()
	c.rec.add("traffic.Generate", t0, c.rec.now(), -1, -1)
	env.trace = tr
	if env.sched, err = scheduleOf(tr, false); err != nil {
		return nil, err
	}
	env.nWarm = sort.Search(len(tr.Events), func(i int) bool { return tr.Events[i].OffsetS >= ld.warmS })

	cfg := serveConfig(ld.policy)
	if ld.policy == policy.IDEEWA {
		if env.offline, err = calibrate(ld.classes, c.rec); err != nil {
			return nil, err
		}
		cfg.Offline = env.offline
	}
	if c.rec != nil {
		env.reg = obs.NewRegistry()
		cfg.Obs = env.reg
		cfg.Invariants = true
	}
	t0 = c.rec.now()
	if env.srv, err = serve.New(cfg); err != nil {
		return nil, err
	}
	c.rec.add("serve.New", t0, c.rec.now(), -1, -1)
	env.h = env.srv.Handler()

	warm := newOpenLog(env.nWarm)
	replayOpen(env.h, env.sched, 0, env.nWarm, 1, warm, nil)
	for _, st := range warm.status {
		switch st {
		case http.StatusOK:
			env.warmOK++
		case http.StatusGatewayTimeout:
			env.warmExpired++
		}
	}
	runtime.GC()
	return env, nil
}

// harnessCost replays the first second of the measured schedule, eight
// times compressed, against a handler that answers 200 at once: what is
// left is the harness's own allocations per job and the time its
// dispatcher is awake per job.
func harnessCost(s *schedule, from int) (allocsPerJob, nsPerJob float64) {
	to := from
	for to < len(s.dueNS) && s.dueNS[to]-s.dueNS[from] < int64(time.Second) {
		to++
	}
	if to == from {
		return 0, 0
	}
	log := newOpenLog(len(s.dueNS))
	m0 := mallocs()
	awake := replayOpen(stubHandler, s, from, to, 8, log, nil)
	n := float64(to - from)
	return float64(mallocs()-m0) / n, float64(awake.Nanoseconds()) / n
}

// A request counts as sent late when the dispatcher got it out more than
// a fifth of the workload's latency limit after it was due (10 ms on
// serve-mixed). Lateness is never hidden — latency
// runs from the due time — but a window where more than maxLateShare of
// the requests went out late was not an open loop, and is refused.
const (
	lateDivisor  = 5
	maxLateShare = 0.20
)

// serveSnap is what a live server's whole-window counters read at one
// instant.
type serveSnap struct {
	energyJ   float64
	completed uint64
}

func snapServe(srv *serve.Server) serveSnap {
	return serveSnap{energyJ: srv.EnergyRollup().TotalJ, completed: srv.Stats().Completed}
}

// openRun is one measured open-loop window.
type openRun struct {
	sent, ok, inLimit int
	expired           int // answered 504
	unresolved        int // requests that came back with no status at all
	windowS           float64
	latOK             []float64 // ascending ms, jobs answered 200
	lateShare         float64
	maxLateMS         float64
	snaps             []serveSnap // the server's counters at every segment boundary
	allocs            uint64
}

// watchServe reads the server's counters at every segment boundary of a
// window that starts now, on a goroutine of its own; wait returns the
// readings once the last one is in.
func watchServe(srv *serve.Server, window time.Duration) (wait func() []serveSnap) {
	n, every := segmentsOf(window)
	snaps := make([]serveSnap, n+1)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for k := range snaps {
			time.Sleep(time.Until(start.Add(time.Duration(k) * every)))
			snaps[k] = snapServe(srv)
		}
	}()
	return func() []serveSnap { <-done; return snaps }
}

// measureOpen replays the measured part of the schedule on time and
// collects what came back.
func measureOpen(env *serveEnv, ld *openLoad, c *runCtx) *openRun {
	n := len(env.sched.dueNS)
	log := newOpenLog(n)
	r := &openRun{sent: n - env.nWarm, windowS: c.seconds}
	m0 := mallocs()
	snaps := watchServe(env.srv, c.window())
	replayOpen(env.h, env.sched, env.nWarm, n, 1, log, c.rec)
	r.snaps = snaps()
	r.allocs = mallocs() - m0
	late := 0
	lat := make([]int64, 0, r.sent)
	for i := env.nWarm; i < n; i++ {
		if log.lateNS[i] > int64(ld.limit/lateDivisor) {
			late++
		}
		if ms := float64(log.lateNS[i]) / 1e6; ms > r.maxLateMS {
			r.maxLateMS = ms
		}
		switch log.status[i] {
		case 0:
			r.unresolved++
		case http.StatusGatewayTimeout:
			r.expired++
		case http.StatusOK:
			r.ok++
			lat = append(lat, log.latNS[i])
			if log.latNS[i] <= int64(ld.limit) {
				r.inLimit++
			}
		}
	}
	r.lateShare = float64(late) / float64(r.sent)
	r.latOK = nsToSortedMS(lat)
	return r
}

// checkServe runs the correctness checks every serve workload shares:
// the server's completed count matches the harness's 200 count, and the
// energy account closes. A traced run also requires zero invariant
// violations. The counts may differ by at most the 504s the harness saw:
// when a job's deadline fires while its batch is running, the handler
// answers 504 at once and the batcher, finding every task done, still
// counts the job completed.
func checkServe(srv *serve.Server, ok200, expired int, traced bool) error {
	if got := int(srv.Stats().Completed); got < ok200 || got > ok200+expired {
		return fmt.Errorf("server completed %d jobs, harness saw %d answered 200 and %d answered 504", got, ok200, expired)
	}
	roll := srv.EnergyRollup()
	if diff := math.Abs(roll.AttributedJ + roll.OverheadJ - roll.TotalJ); diff > 1e-9*math.Max(1, roll.TotalJ) {
		return fmt.Errorf("energy account open: attributed %g + overhead %g != total %g", roll.AttributedJ, roll.OverheadJ, roll.TotalJ)
	}
	if traced {
		if vs := srv.Violations(); len(vs) > 0 {
			return fmt.Errorf("%d runtime invariant violations, first: %v", len(vs), vs[0])
		}
	}
	return nil
}

// runServeOpen is serve-mixed, the open-loop workload.
func runServeOpen(c *runCtx, ld *openLoad) (*outcome, error) {
	if c.rec != nil {
		return traceServeOpen(c, ld)
	}
	env, setupS, err := setUp(c, func() (*serveEnv, error) { return buildOpen(ld, c) },
		func(e *serveEnv) { drain(e.srv) })
	if err != nil {
		return nil, err
	}
	genAllocs, _ := harnessCost(env.sched, env.nWarm)
	runtime.GC()
	r := measureOpen(env, ld, c)
	if err := drain(env.srv); err != nil {
		return nil, err
	}
	if err := r.valid(c); err != nil {
		return nil, err
	}
	if err := checkServe(env.srv, env.warmOK+r.ok, env.warmExpired+r.expired, false); err != nil {
		return nil, err
	}
	if len(r.latOK) < c.floor(minLatencySamples) {
		return nil, fmt.Errorf("%d jobs answered 200, need %d for latency percentiles", len(r.latOK), minLatencySamples)
	}
	mj, err := medianMJPerJob(r.snaps)
	if err != nil {
		return nil, err
	}
	out := newOutcome(int64(r.sent), int64(r.sent-r.ok))
	out.set(mSetup, setupS)
	out.set(mOp, midMean(r.latOK))
	out.set(mGoodput, float64(r.inLimit)/r.windowS)
	out.set(mEnergy, mj)
	out.set(mAllocs, float64(r.allocs)/float64(r.ok)-genAllocs)
	tail := tailPercentile(len(r.latOK))
	out.notef("sent %d, answered 200 %d, within %v %d; p50 %.4f ms, p95 %.4f ms, highest supported percentile p%g %.4f ms; dispatcher late share %.4f, max %.2f ms",
		r.sent, r.ok, ld.limit, r.inLimit, quantileSorted(r.latOK, 0.50), quantileSorted(r.latOK, 0.95), 100*tail, quantileSorted(r.latOK, tail), r.lateShare, r.maxLateMS)
	return out, nil
}

// valid refuses a window whose numbers would not mean what they say. A
// smoke run shares its CPUs with other packages' tests, so it does not
// judge the dispatcher's punctuality.
func (r *openRun) valid(c *runCtx) error {
	if r.unresolved > 0 {
		return fmt.Errorf("%d of %d requests resolved to no status", r.unresolved, r.sent)
	}
	if r.lateShare > maxLateShare && !c.smoke {
		return fmt.Errorf("dispatcher sent %.1f%% of requests late (limit %.0f%%): the open loop was not open", 100*r.lateShare, 100*maxLateShare)
	}
	return nil
}

// batchEvents draws the closed-loop clients' jobs from the seed: 64
// sha1/256B jobs per client, each client its own tenant. There is one
// client: with two, a request waits behind the other client's batch or
// does not, its duration has two modes 1.2 ms apart, and five goroutines
// share two cores.
func batchEvents(seed uint64) ([][]traffic.Event, error) {
	tenants := []string{"batch-0"}
	sp := traffic.Spec{Name: "serve-batch", DurationS: 1, Seed: seed}
	for _, tenant := range tenants {
		sp.Cohorts = append(sp.Cohorts, traffic.Cohort{Tenant: tenant,
			Arrival: traffic.Arrival{Kind: traffic.ArrivalPoisson, RateJPS: 4 * cfgMaxBatch}, Mix: mixOf(fineClasses)})
	}
	tr, err := traffic.Generate(sp)
	if err != nil {
		return nil, err
	}
	clients := make([][]traffic.Event, len(tenants))
	for _, ev := range tr.Events {
		for ci, tenant := range tenants {
			if ev.Tenant == tenant && len(clients[ci]) < cfgMaxBatch {
				clients[ci] = append(clients[ci], ev)
			}
		}
	}
	for ci, evs := range clients {
		if len(evs) != cfgMaxBatch {
			return nil, fmt.Errorf("tenant %s drew %d jobs, need %d", tenants[ci], len(evs), cfgMaxBatch)
		}
	}
	return clients, nil
}

// batchBodies encodes one POST /v1/jobs:batch body per client: one
// request fills MaxBatch and wakes the batcher.
func batchBodies(seed uint64) ([][]byte, error) {
	clients, err := batchEvents(seed)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(clients))
	for ci, evs := range clients {
		if bodies[ci], err = batchBodyOf(evs, false); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// batchEnv is a built, warmed serve-batch server.
type batchEnv struct {
	srv    *serve.Server
	h      http.Handler
	reg    *obs.Registry
	bodies [][]byte
	warmOK int
}

const (
	batchPath = "/v1/jobs:batch"
	batchWarm = 200 * time.Millisecond // closed-loop warm-up before the window
)

func buildBatch(c *runCtx, traced bool) (*batchEnv, error) {
	env := &batchEnv{}
	var err error
	if env.bodies, err = batchBodies(c.seed); err != nil {
		return nil, err
	}
	cfg := serveConfig(policy.IDCilk)
	if traced {
		env.reg = obs.NewRegistry()
		cfg.Obs = env.reg
		cfg.Invariants = true
	}
	t0 := c.rec.now()
	if env.srv, err = serve.New(cfg); err != nil {
		return nil, err
	}
	c.rec.add("serve.New", t0, c.rec.now(), -1, -1)
	env.h = env.srv.Handler()
	logs, _ := runClosed(env.h, batchPath, env.bodies, batchWarm, nil)
	for _, lg := range logs {
		env.warmOK += lg.ok * cfgMaxBatch
	}
	runtime.GC()
	return env, nil
}

// closedRun is one measured closed-loop window.
type closedRun struct {
	okAll, bad int // jobs answered 200; jobs not
	windowS    float64
	lat        []float64   // ascending ms, one entry per request logged in the window
	snaps      []serveSnap // the server's counters at every segment boundary
	allocs     uint64
}

func measureClosed(env *batchEnv, window time.Duration, rec *recorder) *closedRun {
	r := &closedRun{}
	m0 := mallocs()
	snaps := watchServe(env.srv, window)
	logs, wall := runClosed(env.h, batchPath, env.bodies, window, rec)
	r.snaps = snaps()
	r.allocs = mallocs() - m0
	r.windowS = wall.Seconds()
	var dur []int64
	for _, lg := range logs {
		dur = append(dur, lg.durNS...)
		r.okAll += lg.ok * cfgMaxBatch
		r.bad += lg.bad * cfgMaxBatch
	}
	r.lat = nsToSortedMS(dur)
	return r
}

// capacity is the jobs a second the typical request stands for. There is
// one client with one request of cfgMaxBatch jobs outstanding, so a
// request's duration is the whole cost of its jobs, and the rate of the
// typical request is the capacity the host's bursts do not reach.
func (r *closedRun) capacity() float64 {
	return cfgMaxBatch / (midMean(r.lat) / 1e3)
}

// batchGenAllocs measures the closed-loop harness against the stub.
func batchGenAllocs(bodies [][]byte) float64 {
	m0 := mallocs()
	logs, _ := runClosed(stubHandler, batchPath, bodies, 20*time.Millisecond, nil)
	d := mallocs() - m0
	n := 0
	for _, lg := range logs {
		n += lg.ok * cfgMaxBatch
	}
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func runServeBatch(c *runCtx) (*outcome, error) {
	if c.rec != nil {
		return traceServeBatch(c)
	}
	env, setupS, err := setUp(c, func() (*batchEnv, error) { return buildBatch(c, false) },
		func(e *batchEnv) { drain(e.srv) })
	if err != nil {
		return nil, err
	}
	genAllocs := batchGenAllocs(env.bodies)
	runtime.GC()
	r := measureClosed(env, c.window(), nil)
	if err := drain(env.srv); err != nil {
		return nil, err
	}
	if err := checkServe(env.srv, env.warmOK+r.okAll, 0, false); err != nil {
		return nil, err
	}
	if len(r.lat) < c.floor(minLatencySamples) {
		return nil, fmt.Errorf("%d batch requests completed, need %d for latency percentiles", len(r.lat), minLatencySamples)
	}
	mj, err := medianMJPerJob(r.snaps)
	if err != nil {
		return nil, err
	}
	out := newOutcome(int64(r.okAll+r.bad), int64(r.bad))
	out.set(mSetup, setupS)
	out.set(mOp, midMean(r.lat))
	out.set(mGoodput, r.capacity())
	out.set(mEnergy, mj)
	out.set(mAllocs, float64(r.allocs)/float64(r.okAll)-genAllocs)
	out.notef("%d requests of %d jobs in %.2f s, %d jobs refused or failed; p50 %.4f ms, p95 %.4f ms; mean rate over the window %.0f jobs/s",
		len(r.lat), cfgMaxBatch, r.windowS, r.bad, quantileSorted(r.lat, 0.50), quantileSorted(r.lat, 0.95), float64(len(r.lat)*cfgMaxBatch)/r.windowS)
	return out, nil
}
