// Package event implements the discrete-event simulation engine that
// underlies the EEWA multi-core machine model.
//
// The engine is one binary min-heap of entries ordered by (time, seq).
// seq is a per-queue counter stamped on every scheduled event, so two
// events due at the same simulated instant fire in the order they were
// scheduled (FIFO) — which keeps simulation runs fully deterministic, a
// property every scheduler test in this repository relies on.
//
// An event is a bare int32 payload, scheduled with AtIndex and
// dispatched to the one callback registered with SetIndexFn (the sim
// engine keys its events by core index). An entry is a time, a seq and
// a payload, with no pointer in it, so the heap's backing array is
// never scanned by the GC and moving entries on the schedule/drain path
// never fires a write barrier; once the array has grown, neither path
// allocates.
//
// Time is a float64 measured in seconds. The engine itself attaches no
// unit semantics; the machine model defines them.
package event

import (
	"fmt"
	"math"
	"slices"
)

// entry is one pending event.
type entry struct {
	time float64
	seq  uint64 // scheduling order; the same-time tie-break
	v    int32
}

func less(a, b *entry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Queue is a discrete-event queue with its own simulated clock.
// A Queue is not safe for concurrent use: the simulator is
// single-threaded by design (determinism beats parallel speed for a
// scheduler model of this size).
type Queue struct {
	now   float64
	seq   uint64
	fired uint64
	heap  []entry
	ixFn  func(int32)
}

// New returns an empty queue with the clock at zero.
func New() *Queue { return &Queue{} }

// Grow makes room for n more pending events, so scheduling up to that
// many allocates nothing. An engine that knows how many events it keeps
// in flight (the simulator: one per core) sizes the queue once.
func (q *Queue) Grow(n int) { q.heap = slices.Grow(q.heap, n) }

// Now returns the current simulated time in seconds.
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of pending events: scheduled, not yet fired.
func (q *Queue) Len() int { return len(q.heap) }

// Fired returns the number of events executed so far; useful for
// overhead accounting and loop-bound assertions in tests.
func (q *Queue) Fired() uint64 { return q.fired }

// SetIndexFn registers the dispatch function for AtIndex events. It
// must be set before the first AtIndex call; events already scheduled
// keep firing into the newly registered function, so re-registering
// mid-run is almost certainly a bug.
func (q *Queue) SetIndexFn(fn func(int32)) {
	if fn == nil {
		panic("event: nil index dispatch")
	}
	q.ixFn = fn
}

// AtIndex schedules the payload v (≥ 0) to be dispatched to the
// SetIndexFn callback at absolute simulated time t. Scheduling in the
// past, at a non-finite time or with a negative payload is a
// programming error in a discrete-event model, so it panics.
func (q *Queue) AtIndex(t float64, v int32) {
	if t < q.now {
		panic(fmt.Sprintf("event: scheduling at %g before now %g", t, q.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("event: non-finite time %g", t))
	}
	if v < 0 {
		panic(fmt.Sprintf("event: negative index payload %d", v))
	}
	if q.ixFn == nil {
		panic("event: AtIndex before SetIndexFn")
	}
	e := entry{time: t, seq: q.seq, v: v}
	q.seq++
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.heap = h
}

// pop removes the head entry and returns its payload.
func (q *Queue) pop() int32 {
	h := q.heap
	v := h[0].v
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(&h[r], &h[c]) {
			c = r
		}
		if !less(&h[c], &last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return v
}

// StepBatch advances the clock to the next pending timestamp and runs
// *every* event due at that instant — including events the callback
// schedules at the same instant while the batch drains, which sort
// after the ones already pending by seq. It returns the number of
// events executed, 0 when the queue is empty.
func (q *Queue) StepBatch() int {
	if len(q.heap) == 0 {
		return 0
	}
	t := q.heap[0].time
	q.now = t
	n := 0
	for len(q.heap) > 0 && q.heap[0].time == t {
		v := q.pop()
		n++
		q.fired++
		q.ixFn(v)
	}
	return n
}

// Run executes events until the queue is empty.
func (q *Queue) Run() {
	for q.StepBatch() > 0 {
	}
}

// RunUntil executes events with time ≤ deadline, advancing the clock to
// exactly deadline afterwards (even if the last event fired earlier).
// It returns the number of events executed.
func (q *Queue) RunUntil(deadline float64) int {
	if deadline < q.now {
		panic(fmt.Sprintf("event: RunUntil(%g) before now %g", deadline, q.now))
	}
	n := 0
	for len(q.heap) > 0 && q.heap[0].time <= deadline {
		n += q.StepBatch()
	}
	q.now = deadline
	return n
}

// NextTime returns the timestamp of the next pending event and true, or
// 0 and false when the queue is empty.
func (q *Queue) NextTime() (float64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}
