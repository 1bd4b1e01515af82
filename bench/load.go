package main

import (
	"bytes"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Load generation for the serve workloads. Requests are pre-encoded
// bodies replayed straight into the server's http.Handler — no sockets,
// no httptest, no per-request marshalling — so what is timed is the
// server's ingest, admission, batching and runtime, not a client stack
// (the internal/density closed-loop idiom).

// statusWriter is the cheapest http.ResponseWriter a handler accepts:
// it keeps the status code and discards the body.
type statusWriter struct {
	hdr    http.Header
	status int
}

func (w *statusWriter) Header() http.Header { return w.hdr }

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// rewindBody replays one byte slice after another without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// caller is one reusable in-process HTTP client: a request object whose
// body is re-pointed at the next pre-encoded payload.
type caller struct {
	h    http.Handler
	req  *http.Request
	body rewindBody
	w    statusWriter
}

func newCaller(h http.Handler, path string) *caller {
	c := &caller{h: h, w: statusWriter{hdr: http.Header{}}}
	c.req = &http.Request{
		Method:     http.MethodPost,
		URL:        &url.URL{Scheme: "http", Host: "bench.local", Path: path},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Host:       "bench.local",
		Body:       &c.body,
	}
	return c
}

// post sends body and returns the response status.
func (c *caller) post(body []byte) int {
	c.body.Reset(body)
	c.w.status = 0
	clear(c.w.hdr)
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.status
}

// stubHandler answers 200 at once. Replaying a schedule against it
// measures the harness alone.
var stubHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
})

// schedule is an open-loop arrival plan: request i is due dueNS[i]
// after the start of the replay and carries bodies[i].
type schedule struct {
	path   string
	dueNS  []int64
	bodies [][]byte
}

// openLog is what an open-loop replay observed, indexed like the
// schedule. Each request's slot is written by exactly one goroutine.
type openLog struct {
	status []int16
	latNS  []int64 // response − due: a stall delays every later request too
	lateNS []int64 // send − due: how far behind the dispatcher ran
}

func newOpenLog(n int) *openLog {
	return &openLog{status: make([]int16, n), latNS: make([]int64, n), lateNS: make([]int64, n)}
}

// maxCallers bounds the goroutines an open-loop replay may hold blocked
// in the server. When every one of them is blocked the dispatcher waits
// for the first to come back, and what it then sends goes out late and is
// counted as late.
const maxCallers = 4096

// replayOpen sends requests [from, to) of s into h on schedule,
// regardless of completions: one dispatcher goroutine (the caller's)
// sleeps until each request is due and hands it to an idle caller
// goroutine, growing the pool when every caller is blocked in the
// server. speed compresses the schedule (1 is real time). The replay
// clock starts at dueNS[from], so a later slice of a schedule starts at
// once. It returns, once every response is in, the time the dispatcher
// spent awake: the harness's own cost.
func replayOpen(h http.Handler, s *schedule, from, to int, speed float64, log *openLog, rec *recorder) time.Duration {
	if from >= to {
		return 0
	}
	var wg sync.WaitGroup
	idle := make(chan chan int, maxCallers) // every caller parks its inbox here; sized so a park never blocks
	callers := 0
	start := time.Now()
	base := s.dueNS[from]
	dueAt := func(i int) int64 { return int64(float64(s.dueNS[i]-base) / speed) }
	spawn := func() chan int {
		inbox := make(chan int)
		c := newCaller(h, s.path)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range inbox {
				due := dueAt(i)
				sent := int64(time.Since(start))
				t0 := rec.now()
				st := c.post(s.bodies[i])
				rec.add("ServeHTTP", t0, rec.now(), -1, int32(i))
				log.status[i] = int16(st)
				log.lateNS[i] = sent - due
				log.latNS[i] = int64(time.Since(start)) - due
				idle <- inbox
			}
		}()
		return inbox
	}
	var slept time.Duration
	for i := from; i < to; i++ {
		if d := time.Duration(dueAt(i)) - time.Since(start); d > 0 {
			t0 := time.Now()
			time.Sleep(d)
			slept += time.Since(t0)
		}
		var inbox chan int
		select {
		case inbox = <-idle:
		default:
			if callers < maxCallers {
				inbox = spawn()
				callers++
			} else {
				inbox = <-idle
			}
		}
		inbox <- i
	}
	awake := time.Since(start) - slept
	// Every caller parks its inbox once more after its last request.
	for n := 0; n < callers; n++ {
		close(<-idle)
	}
	wg.Wait()
	return awake
}

// closedLog is what one closed-loop client observed: the duration of
// every request answered 200 wholly inside the window, and a count of
// every answer it ever got, the request in flight at the close included.
type closedLog struct {
	durNS []int64
	ok    int // requests answered 200
	bad   int // requests answered anything else
}

// runClosed keeps one request outstanding per body in bodies against h
// for the given window: each client sends, waits for the reply and sends
// again. Only requests that ran wholly inside the window are logged.
func runClosed(h http.Handler, path string, bodies [][]byte, window time.Duration, rec *recorder) ([]closedLog, time.Duration) {
	logs := make([]closedLog, len(bodies))
	for i := range logs {
		// Room for a window's requests, so logging does not allocate.
		logs[i].durNS = make([]int64, 0, 1<<16)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range bodies {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newCaller(h, path)
			lg := &logs[ci]
			for n := int32(0); !stop.Load(); n++ {
				t0 := time.Since(start)
				r0 := rec.now()
				st := c.post(bodies[ci])
				rec.add("ServeHTTP", r0, rec.now(), -1, n*int32(len(bodies))+int32(ci))
				t1 := time.Since(start)
				if st != http.StatusOK {
					lg.bad++
					continue
				}
				lg.ok++
				if !stop.Load() {
					lg.durNS = append(lg.durNS, int64(t1-t0))
				}
			}
		}(ci)
	}
	time.Sleep(window)
	stop.Store(true)
	wall := time.Since(start)
	wg.Wait()
	return logs, wall
}

// mallocs reads the process's cumulative heap allocation count. It
// stops the world for a few microseconds, which is why it is read at
// window and repetition boundaries and never inside an operation;
// runtime/metrics would not stop the world, but its per-P counts lag,
// and a per-repetition delta of a lagging count is not exact.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
