package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/rt"
)

// When a batch forms (DESIGN.md §9): a request wakes its shard's batcher
// once its jobs are admitted, so an idle shard runs at once and a busy
// one batches what arrived while it ran. Config.FlushEvery is the
// ceiling behind that, not the cadence; these tests set it to an hour so
// that only a wake-up can form a batch.

// probeFunc is a kernel the tests register to steer and watch a shard
// from inside a batch. A task with seed 0 reports that it started and
// then blocks until the test releases it: a batch holding one keeps the
// shard busy for as long as the test wants. Any other task records its
// seed, so the test can read the order tasks ran in.
const probeFunc = "test-probe"

type probe struct {
	started chan struct{} // one token per blocking task that has started
	gate    chan struct{}
	once    sync.Once

	mu  sync.Mutex
	ran []uint64
}

// newProbe registers probeFunc for the length of the test. Call it after
// testServer: cleanups run last-in first-out, and the blocked payload
// must be released before the HTTP server waits for its handlers.
func newProbe(t *testing.T) *probe {
	t.Helper()
	p := &probe{started: make(chan struct{}, 8), gate: make(chan struct{})}
	kernelSpecs[probeFunc] = kernelSpec{
		fill: func(dst []byte, seed uint64) { binary.LittleEndian.PutUint64(dst, seed) },
		run: func(data []byte) {
			seed := binary.LittleEndian.Uint64(data)
			if seed == 0 {
				p.started <- struct{}{}
				<-p.gate
				return
			}
			p.mu.Lock()
			p.ran = append(p.ran, seed)
			p.mu.Unlock()
		},
	}
	t.Cleanup(func() {
		p.release()
		delete(kernelSpecs, probeFunc)
	})
	return p
}

func (p *probe) release() { p.once.Do(func() { close(p.gate) }) }

func (p *probe) order() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.ran)
}

// postJob is submit for goroutines other than the test's own: it reports
// a failed request as status 0 instead of calling t.Fatal.
func postJob(url string, req JobRequest) (status int, body []byte) {
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// hold posts one blocking job and returns once its payload is running,
// i.e. once the shard is inside a batch it cannot leave. done yields the
// job's HTTP status after release.
func (p *probe) hold(t *testing.T, url string) (done <-chan int) {
	t.Helper()
	out := make(chan int, 1)
	go func() {
		status, _ := postJob(url, JobRequest{Func: probeFunc, SizeBytes: 8, Seed: 0})
		out <- status
	}()
	select {
	case <-p.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the blocking job never started")
	}
	return out
}

// waitAdmitted polls until the server has admitted n jobs.
func waitAdmitted(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("admitted %d jobs, waiting for %d", s.Stats().Admitted, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// With nothing queued and an idle shard, a job gets the shard now: the
// hour-long FlushEvery never comes into it. At the parent commit this
// request waits for the tick.
func TestIdleShardRunsJobAtOnce(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.FlushEvery = time.Hour })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		jsonBody(t, JobRequest{Func: "sha1", Count: 2, SizeBytes: 1024}))
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no answer from an idle shard: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("an idle shard took %v to answer one job", el)
	}
	drain(t, s)
}

// The wake-up is per request, not per job: a 64-job batch request on an
// idle shard is one batch of 64 tasks. MaxBatch is out of reach, so the
// queue-is-full wake-up cannot be what formed it.
func TestBatchRequestFormsOneBatch(t *testing.T) {
	s, ts := testServer(t, func(c *Config) {
		c.FlushEvery = time.Hour
		c.MaxBatch = 128
	})
	const jobs = 64
	var breq BatchRequest
	for i := 0; i < jobs; i++ {
		breq.Jobs = append(breq.Jobs, JobRequest{Func: "sha1", SizeBytes: 256, Seed: uint64(i)})
	}
	before := s.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs:batch", jsonBody(t, breq))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var bres BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&bres)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || len(bres.Jobs) != jobs {
		t.Fatalf("status %d, %d items, decode error %v", resp.StatusCode, len(bres.Jobs), err)
	}
	for i, it := range bres.Jobs {
		if it.Status != 200 || it.Result == nil || it.Result.Batch != bres.Jobs[0].Result.Batch {
			t.Fatalf("item %d = %+v, want 200 in batch %d", i, it, bres.Jobs[0].Result.Batch)
		}
	}
	after := s.Stats()
	if got := after.Batches - before.Batches; got != 1 {
		t.Errorf("a %d-job request formed %d batches, want 1", jobs, got)
	}
	if got := after.Tasks - before.Tasks; got != jobs {
		t.Errorf("tasks run %d, want %d", got, jobs)
	}
	drain(t, s)
}

// Bookkeeping is paid per edge, not per job: a 64-job batch request
// with no deadlines reads the service clock once at admission, once at
// batch formation and once at completion, however many jobs it carries
// (and the batcher once more, when it finds the queue empty again).
// One admission stamp and one formation reading give every job of the
// request the same queue_ms.
func TestBatchRequestClockBudget(t *testing.T) {
	var reads atomic.Int64
	s, ts := testServer(t, func(c *Config) {
		c.FlushEvery = time.Hour
		c.MaxBatch = 128
		c.Clock = func() time.Time { reads.Add(1); return time.Now() }
	})
	const jobs, budget = 64, 4
	var breq BatchRequest
	for i := 0; i < jobs; i++ {
		breq.Jobs = append(breq.Jobs, JobRequest{Func: "sha1", SizeBytes: 256, Seed: uint64(i)})
	}
	body := jsonBody(t, breq)
	reads.Store(0)
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var bres BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&bres)
	resp.Body.Close()
	got := reads.Load()
	if err != nil || resp.StatusCode != 200 || len(bres.Jobs) != jobs {
		t.Fatalf("status %d, %d items, decode error %v", resp.StatusCode, len(bres.Jobs), err)
	}
	if got > budget {
		t.Errorf("a %d-job request read the service clock %d times, budget %d", jobs, got, budget)
	}
	for i, it := range bres.Jobs {
		if it.Result == nil || it.Result.QueueMS != bres.Jobs[0].Result.QueueMS {
			t.Errorf("item %d = %+v, want queue_ms %g like item 0", i, it.Result, bres.Jobs[0].Result.QueueMS)
		}
	}
	drain(t, s)
}

// Jobs admitted while a batch holds the shard wait for it and then
// leave together, in one batch, ordered as the batcher always ordered
// them: heavier work hint first, admission order among equals. One
// worker, so the run order is readable: the runtime pushes the batch
// onto the worker's pool in order and the worker pops from the same
// end, which runs the batch back to front.
func TestBusyShardBatchesArrivals(t *testing.T) {
	s, ts := testServer(t, func(c *Config) {
		c.FlushEvery = time.Hour
		c.Workers = 1
		c.Policy = policy.IDCilk
	})
	p := newProbe(t)
	held := p.hold(t, ts.URL)

	hints := []float64{0, 2e-3, 1e-3, 2e-3, 0} // jobs 1..5, in admission order
	want := []uint64{5, 1, 3, 4, 2}            // batch order 2 4 3 1 5, run back to front
	type answer struct {
		status int
		res    JobResult
	}
	answers := make(chan answer, len(hints))
	for i, hint := range hints {
		go func() {
			status, body := postJob(ts.URL, JobRequest{Func: probeFunc, SizeBytes: 8, Seed: uint64(i + 1), WorkHintS: hint})
			a := answer{status: status}
			if err := json.Unmarshal(body, &a.res); err != nil {
				a.status = -1
			}
			answers <- a
		}()
		waitAdmitted(t, s, uint64(i+2)) // the held job is the first admission
	}
	if st := s.Stats(); st.Batches != 0 || st.Queued != len(hints) {
		t.Fatalf("while the shard is held: %d batches done, %d tasks queued, want 0 and %d", st.Batches, st.Queued, len(hints))
	}

	p.release()
	if st := <-held; st != 200 {
		t.Fatalf("held job answered %d", st)
	}
	for range hints {
		a := <-answers
		if a.status != 200 || a.res.Batch != 1 {
			t.Errorf("arrival answered %d in batch %d, want 200 in batch 1", a.status, a.res.Batch)
		}
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Errorf("%d batches, want 2: the held one and one for everything that arrived behind it", st.Batches)
	}
	if got := p.order(); !slices.Equal(got, want) {
		t.Errorf("arrivals ran in order %v, want %v", got, want)
	}
	drain(t, s)
}

// Manual flush is lockstep: admission wakes nobody and nothing runs
// until Flush, which then takes the whole backlog as one batch.
func TestManualFlushRunsNothingUntilFlush(t *testing.T) {
	s, err := New(Config{Workers: 2, Policy: policy.IDCilk, ManualFlush: true, FlushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var pend []*Pending
	for i := 0; i < 3; i++ {
		p, rej := s.Submit(JobRequest{Func: "sha1", SizeBytes: 256, Seed: uint64(i)})
		if rej != nil {
			t.Fatalf("submit rejected: %+v", rej)
		}
		pend = append(pend, p)
	}
	time.Sleep(20 * time.Millisecond) // twenty ticks of the batcher this mode does not have
	if st := s.Stats(); st.Batches != 0 || st.Queued != 3 {
		t.Fatalf("before Flush: %d batches, %d queued, want 0 and 3", st.Batches, st.Queued)
	}
	if n := len(s.shards[0].wake); n != 0 {
		t.Errorf("admission left %d wake-up tokens under ManualFlush", n)
	}
	s.Flush()
	for _, p := range pend {
		if st, res, _ := p.Wait(); st != 200 || res.Batch != 0 {
			t.Errorf("status %d, result %+v, want 200 in batch 0", st, res)
		}
	}
	if st := s.Stats(); st.Batches != 1 || st.Tasks != 3 {
		t.Errorf("after Flush: %+v, want 1 batch of 3 tasks", st)
	}
	drain(t, s)
}

// A client that hangs up on a batch request costs the pool nothing: the
// handler drops its reference on every job it admitted, those whose
// outcome it had already read included. MaxBatch is 2, so the four-job
// request runs as two batches; the second holds a blocking task, and the
// request is cancelled once the first batch's outcomes have been read.
// At the parent commit jobs 0 and 1 keep the handler's reference for
// ever.
func TestBatchDisconnectReleasesEveryJob(t *testing.T) {
	s, err := New(Config{Workers: 1, Policy: policy.IDCilk, ManualFlush: true, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe(t)
	breq := BatchRequest{}
	for _, seed := range []uint64{1, 2, 3, 0} {
		breq.Jobs = append(breq.Jobs, JobRequest{Func: probeFunc, SizeBytes: 8, Seed: seed})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", jsonBody(t, breq)).WithContext(ctx)
	rec := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.Handler().ServeHTTP(rec, req)
	}()

	waitAdmitted(t, s, 4)
	sh := s.shards[0]
	sh.qmu.Lock()
	jobs := slices.Clone(sh.pending[sh.head:])
	sh.qmu.Unlock()
	if len(jobs) != 4 {
		t.Fatalf("%d jobs queued, want 4", len(jobs))
	}

	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		s.Flush()
	}()
	select {
	case <-p.started: // batch 0 is answered, batch 1 is inside its blocking task
	case <-time.After(10 * time.Second):
		t.Fatal("the blocking task never started")
	}
	for deadline := time.Now().Add(10 * time.Second); len(jobs[0].done)+len(jobs[1].done) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("the handler never read the first batch's outcomes")
		}
		time.Sleep(200 * time.Microsecond)
	}
	cancel()
	<-returned
	if rec.Body.Len() != 0 {
		t.Errorf("a cancelled request was answered: %q", rec.Body.Bytes())
	}
	p.release()
	<-flushed
	drain(t, s)

	for i, j := range jobs {
		if refs := j.refs.Load(); refs != 0 {
			t.Errorf("job %d still has %d references after the disconnect and the drain", i, refs)
		}
	}
	if st := s.Stats(); st.Admitted != 4 || st.Admitted != st.Completed+st.Timeouts {
		t.Errorf("conservation: %d admitted, %d completed, %d timed out", st.Admitted, st.Completed, st.Timeouts)
	}
}

// NextBatch is the one batching rule: FIFO up to maxBatch tasks with a
// head-of-line break, expired and cancelled jobs dropped without taking
// room, then a stable sort by descending work hint.
func TestNextBatchRule(t *testing.T) {
	now := time.Unix(100, 0)
	type spec struct {
		n         int
		hint      float64
		deadline  time.Time // zero = none
		cancelled bool
	}
	cases := []struct {
		name          string
		maxBatch      int
		queue         []spec
		batch, expire []int // queue indices, in result order
	}{
		{name: "empty", maxBatch: 4},
		{name: "head-of-line break", maxBatch: 4,
			queue: []spec{{n: 2}, {n: 3}, {n: 1}},
			batch: []int{0}},
		{name: "fills to maxBatch", maxBatch: 4,
			queue: []spec{{n: 2}, {n: 1}, {n: 1}, {n: 1}},
			batch: []int{0, 1, 2}},
		{name: "maxBatch job alone", maxBatch: 4,
			queue: []spec{{n: 4}, {n: 1}},
			batch: []int{0}},
		{name: "maxBatch job opens the next batch", maxBatch: 4,
			queue: []spec{{n: 1}, {n: 4}},
			batch: []int{0}},
		{name: "deadline now kept, 1ns past dropped", maxBatch: 8,
			queue:  []spec{{n: 1, deadline: now}, {n: 1, deadline: now.Add(time.Nanosecond)}, {n: 1, deadline: now.Add(-time.Nanosecond)}},
			batch:  []int{0, 1},
			expire: []int{2}},
		{name: "cancelled dropped", maxBatch: 8,
			queue:  []spec{{n: 1}, {n: 2, cancelled: true}, {n: 1}},
			batch:  []int{0, 2},
			expire: []int{1}},
		{name: "dropped job takes no room", maxBatch: 4,
			queue:  []spec{{n: 3, cancelled: true}, {n: 3}, {n: 1}},
			batch:  []int{1, 2},
			expire: []int{0}},
		{name: "heaviest hint first, equal hints FIFO", maxBatch: 8,
			queue: []spec{{n: 1, hint: 1}, {n: 1, hint: 2}, {n: 1, hint: 1}, {n: 1, hint: 2}, {n: 1}},
			batch: []int{1, 3, 0, 2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			queue := make([]*job, len(tc.queue))
			index := map[*job]int{}
			for i, sp := range tc.queue {
				j := &job{tasks: make([]rt.Task, sp.n), req: JobRequest{WorkHintS: sp.hint}, deadline: sp.deadline}
				j.cancelled.Store(sp.cancelled)
				queue[i], index[j] = j, i
			}
			batch, expired, popped := NextBatch(now, queue, tc.maxBatch, nil, nil)
			idx := func(js []*job) []int {
				var out []int
				for _, j := range js {
					out = append(out, index[j])
				}
				return out
			}
			if got := idx(batch); !slices.Equal(got, tc.batch) {
				t.Errorf("batch = %v, want %v", got, tc.batch)
			}
			if got := idx(expired); !slices.Equal(got, tc.expire) {
				t.Errorf("expired = %v, want %v", got, tc.expire)
			}
			if want := len(tc.batch) + len(tc.expire); popped != want {
				t.Errorf("popped = %d, want %d", popped, want)
			}
		})
	}
}
