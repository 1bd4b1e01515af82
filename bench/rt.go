package main

import (
	"crypto/sha1"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/policy"
	"repro/internal/rt"
	"repro/internal/xrand"
)

// payload is one harness-owned task body: a SHA-1 over its own corpus.
// The harness owns the closure, so it can count executions, keep the
// digest for checking and, in a traced run, time the kernel itself.
type payload struct {
	data []byte
	want [20]byte // crypto/sha1 of data, computed at set-up
	got  [20]byte
	runs atomic.Int64
	// Traced runs only: the payload times itself, keeps its last span for
	// the record and adds to the batch's payload total.
	rec    *recorder
	startN int64
	durNS  int64
	total  *atomic.Int64
}

func (p *payload) run() {
	if p.rec == nil {
		p.got = kernels.SHA1(p.data)
		p.runs.Add(1)
		return
	}
	t0 := p.rec.now()
	p.got = kernels.SHA1(p.data)
	p.startN = t0
	p.durNS = p.rec.now() - t0
	p.total.Add(p.durNS)
	p.runs.Add(1)
}

// rtBatch is a fixed batch of n sha1 tasks over size-byte corpora drawn
// from the seed.
type rtBatch struct {
	payloads  []*payload
	tasks     []rt.Task
	payloadNS atomic.Int64 // summed kernel time, traced runs only
}

func newRTBatch(seed uint64, n, size int, rec *recorder) *rtBatch {
	rng := xrand.New(seed)
	b := &rtBatch{payloads: make([]*payload, n), tasks: make([]rt.Task, n)}
	for i := range b.payloads {
		p := &payload{data: kernels.TextCorpus(rng.Uint64(), size), rec: rec, total: &b.payloadNS}
		p.want = sha1.Sum(p.data)
		b.payloads[i] = p
		b.tasks[i] = rt.Task{Class: "sha1", Run: p.run}
	}
	return b
}

// check verifies that every payload ran exactly `batches` times and
// left the right digest.
func (b *rtBatch) check(batches int64) error {
	for i, p := range b.payloads {
		if got := p.runs.Load(); got != batches {
			return fmt.Errorf("task %d ran %d times in %d batches", i, got, batches)
		}
		if batches > 0 && p.got != p.want {
			return fmt.Errorf("task %d digest %x, want %x", i, p.got, p.want)
		}
	}
	return nil
}

func newRuntime(pol rt.Policy, impl policy.Policy, traced bool) (*rt.Runtime, error) {
	return rt.New(rt.Config{
		Workers:    cfgWorkers,
		Machine:    cfgMachine(),
		Policy:     pol,
		Impl:       impl,
		Seed:       cfgServerSeed,
		Invariants: traced,
	})
}

const (
	rtIterTasks = 64
	rtIterSize  = 4 << 10
	rtWarmup    = 3                      // full batches before a probe's window
	rtWarmFor   = 100 * time.Millisecond // batches before the workload's window
)

// rtEnv is a built, warmed rt-iter workload.
type rtEnv struct {
	r      *rt.Runtime
	batch  *rtBatch
	warmed int // batches run as warm-up
}

func buildRTIter(c *runCtx) (*rtEnv, error) {
	env := &rtEnv{batch: newRTBatch(c.seed, rtIterTasks, rtIterSize, c.rec)}
	var err error
	if env.r, err = newRuntime(rt.PolicyCilk, nil, c.rec != nil); err != nil {
		return nil, err
	}
	// Warm up for a fixed time, not a fixed count: the workers' stacks, the
	// profile and the pools settle within a few batches, and a set-up of
	// three batches (5 ms) would report the host's jitter as setup_s.
	for t0 := time.Now(); time.Since(t0) < rtWarmFor; env.warmed++ {
		env.r.RunBatch(env.batch.tasks)
	}
	runtime.GC()
	return env, nil
}

// iterRun is one measured loop of RunBatch calls.
type iterRun struct {
	batches int
	tasks   int
	windowS float64
	callMS  []float64 // ascending, one per RunBatch call
	callMJ  []float64 // ascending, modelled energy per executed task, one per call
	allocs  uint64
	stats   []rt.BatchStats // traced runs only
}

// loopBatches calls RunBatch on the same batch until the window closes.
func loopBatches(r *rt.Runtime, b *rtBatch, window time.Duration, c *runCtx, keepStats bool) *iterRun {
	run := &iterRun{callMJ: make([]float64, 0, 1<<16)}
	calls := make([]int64, 0, 1<<16)
	m0 := mallocs()
	start := time.Now()
	for time.Since(start) < window {
		t0 := time.Now()
		r0 := c.rec.now()
		span := c.rec.reserve("rt.RunBatch", r0, -1, int32(run.batches))
		bs := r.RunBatch(b.tasks)
		calls = append(calls, int64(time.Since(t0)))
		if c.rec != nil {
			c.rec.finish(span, c.rec.now())
			for _, p := range b.payloads {
				c.rec.add("payload", p.startN, p.startN+p.durNS, span, int32(run.batches))
			}
		}
		done := bs.Tasks - bs.Cancelled
		if done > 0 {
			run.callMJ = append(run.callMJ, bs.Energy*1e3/float64(done))
		}
		run.batches++
		run.tasks += done
		if keepStats {
			run.stats = append(run.stats, bs)
		}
	}
	run.windowS = time.Since(start).Seconds()
	run.allocs = mallocs() - m0
	run.callMS = nsToSortedMS(calls)
	sort.Float64s(run.callMJ)
	return run
}

func runRTIter(c *runCtx) (*outcome, error) {
	if c.rec != nil {
		return traceRTIter(c)
	}
	env, setupS, err := setUp(c, func() (*rtEnv, error) { return buildRTIter(c) }, func(*rtEnv) {})
	if err != nil {
		return nil, err
	}
	r := loopBatches(env.r, env.batch, c.window(), c, false)
	submitted := r.batches * rtIterTasks
	if err := env.batch.check(int64(env.warmed + r.batches)); err != nil {
		return nil, err
	}
	if len(r.callMS) < c.floor(minLatencySamples) {
		return nil, fmt.Errorf("%d RunBatch calls completed, need %d for latency percentiles", len(r.callMS), minLatencySamples)
	}
	// Every call runs the same batch, so the typical call is the batch's
	// cost, and the tasks of one batch over it the rate the host's bursts
	// do not reach; the mean over the window is printed beside it.
	op := midMean(r.callMS)
	out := newOutcome(int64(submitted), int64(submitted-r.tasks))
	out.set(mSetup, setupS)
	out.set(mOp, op)
	out.set(mGoodput, rtIterTasks/(op/1e3))
	out.set(mEnergy, midMean(r.callMJ))
	out.set(mAllocs, float64(r.allocs)/float64(r.tasks))
	out.notef("%d RunBatch calls of %d sha1/%dB tasks in %.2f s; batch_p50_us %.1f, p95 %.1f; mean rate over the window %.0f tasks/s", r.batches, rtIterTasks, rtIterSize,
		r.windowS, 1e3*quantileSorted(r.callMS, 0.50), 1e3*quantileSorted(r.callMS, 0.95), float64(r.tasks)/r.windowS)
	return out, nil
}
