// Package event implements the discrete-event simulation engine that
// underlies the EEWA multi-core machine model.
//
// The engine is a calendar queue organized as *time buckets*: events
// due at the same simulated instant share a bucket, and the buckets
// are ordered by a binary heap on (time, creation seq). Popping a
// bucket advances the simulated clock to its timestamp and invokes its
// events in scheduling order, so the heap is touched once per distinct
// timestamp rather than once per event — the dominant pattern in the
// scheduler (a batch start schedules one wake-up per core at the same
// instant, and task completions cluster on quantized probe/steal
// costs). Same-time ordering is scheduling order (FIFO), which keeps
// simulation runs fully deterministic — a property every scheduler
// test in this repository relies on.
//
// An event is a bare int32 payload, scheduled with AtIndex and
// dispatched to the one callback registered with SetIndexFn (the sim
// engine keys its events by core index). Buckets hold payloads as plain
// integers and the heap orders int32 indices into a dense bucket arena,
// so neither scheduling nor draining allocates per event or writes a
// pointer — a GC write barrier never fires on the schedule/drain path.
//
// Time is a float64 measured in seconds. The engine itself attaches no
// unit semantics; the machine model defines them.
package event

import (
	"fmt"
	"math"
)

// bucket holds the payloads due at one simulated instant, in
// scheduling order. next is the drain cursor: slots[:next] have fired.
type bucket struct {
	time  float64
	seq   uint64 // creation order; heap tie-break = FIFO across same-time buckets
	next  int
	slots []int32
}

// Queue is a discrete-event queue with its own simulated clock.
// A Queue is not safe for concurrent use: the simulator is
// single-threaded by design (determinism beats parallel speed for a
// scheduler model of this size).
type Queue struct {
	now     float64
	nextSeq uint64
	fired   uint64
	pending int

	// arena owns every bucket; heap is a min-heap of arena indices on
	// (time, seq), and free recycles exhausted buckets' indices. last
	// caches the most recently targeted bucket (-1 = none): the
	// engine's batch-start fan-out and same-time completion cascades
	// append straight into it. When the cache misses, a *new* bucket is
	// opened even if an older same-time bucket exists — once last moves
	// off a bucket nothing can append to it again, so every event in a
	// lower-seq bucket was scheduled before every event in a higher-seq
	// one, and the (time, seq) heap order yields global per-timestamp
	// FIFO without any timestamp index on the schedule path. Every
	// bucket on the heap holds a pending event: bucketFor opens one only
	// to append to it, and StepBatch pops each bucket it exhausts.
	arena []bucket
	heap  []int32
	last  int32
	free  []int32

	ixFn func(int32)
}

// New returns an empty queue with the clock at zero.
func New() *Queue {
	return &Queue{last: -1}
}

// Now returns the current simulated time in seconds.
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of pending events: scheduled, not yet fired.
func (q *Queue) Len() int { return q.pending }

// Fired returns the number of events executed so far; useful for
// overhead accounting and loop-bound assertions in tests.
func (q *Queue) Fired() uint64 { return q.fired }

// bucketFor returns the arena index of a bucket accepting appends for
// timestamp t: the cached last bucket when it matches, a fresh (or
// recycled) one otherwise. The returned index is stable; pointers into
// the arena are not (it may grow on the next bucketFor).
func (q *Queue) bucketFor(t float64) int32 {
	if q.last >= 0 && q.arena[q.last].time == t {
		return q.last
	}
	var bi int32
	if n := len(q.free); n > 0 {
		bi = q.free[n-1]
		q.free = q.free[:n-1]
		b := &q.arena[bi]
		b.time, b.next = t, 0
		b.slots = b.slots[:0]
		b.seq = q.nextSeq
	} else {
		if len(q.arena) >= math.MaxInt32 {
			panic("event: bucket arena exceeds int32 index space")
		}
		bi = int32(len(q.arena))
		q.arena = append(q.arena, bucket{time: t, seq: q.nextSeq})
	}
	q.nextSeq++
	q.pushBucket(bi)
	q.last = bi
	return bi
}

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
	bi := q.bucketFor(t)
	b := &q.arena[bi]
	b.slots = append(b.slots, v)
	q.pending++
}

// popHead removes the exhausted head bucket and returns its arena index
// to the freelist.
func (q *Queue) popHead() {
	bi := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
	if q.last == bi {
		q.last = -1
	}
	q.free = append(q.free, bi)
}

// StepBatch advances the clock to the next pending timestamp and runs
// *every* event due at that instant — including events the callback
// schedules at the same instant while the batch drains — touching the
// heap once per bucket (usually once per distinct timestamp). It
// returns the number of events executed, 0 when the queue is empty.
func (q *Queue) StepBatch() int {
	if len(q.heap) == 0 {
		return 0
	}
	bi := q.heap[0]
	t := q.arena[bi].time
	q.now = t
	n := 0
	for {
		// Appends during the drain (the callback scheduling at q.now)
		// land either directly in this bucket (when it is still the
		// cached last bucket) — picked up by the inner loop — or in a
		// fresh same-time bucket the outer loop reaches next. The arena
		// may grow inside the callback, so the bucket pointer is
		// re-derived each iteration rather than held across it.
		for {
			b := &q.arena[bi]
			if b.next >= len(b.slots) {
				break
			}
			s := b.slots[b.next]
			b.next++
			n++
			q.pending--
			q.fired++
			q.ixFn(s)
		}
		q.popHead()
		if len(q.heap) == 0 {
			break
		}
		bi = q.heap[0]
		if q.arena[bi].time != t {
			break
		}
	}
	return n
}

// Run executes events until the queue is empty, draining one timestamp
// per heap touch.
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
	for len(q.heap) > 0 && q.arena[q.heap[0]].time <= deadline {
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
	return q.arena[q.heap[0]].time, true
}

// The heap orders arena indices by (time, seq): seq breaks same-time
// ties so buckets pop in creation order, which is insertion order of
// their events (see the Queue.last invariant). The sift routines are
// concrete (no container/heap interface dispatch) and swap int32
// indices, not pointers — heap maintenance never triggers a GC write
// barrier.

func (q *Queue) heapLess(a, b int32) bool {
	x, y := &q.arena[a], &q.arena[b]
	if x.time != y.time {
		return x.time < y.time
	}
	return x.seq < y.seq
}

func (q *Queue) pushBucket(bi int32) {
	q.heap = append(q.heap, bi)
	i := len(q.heap) - 1
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *Queue) siftDown(i int) {
	h := q.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.heapLess(h[r], h[l]) {
			min = r
		}
		if !q.heapLess(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
