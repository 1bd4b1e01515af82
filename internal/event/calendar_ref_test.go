package event

import (
	"fmt"
	"math"
)

// refQueue is the calendar queue this package shipped before the plain
// (time, seq) heap, its code kept verbatim apart from its names (Queue
// → refQueue, New → newRefQueue) as the reference
// TestQueueMatchesCalendarReference and FuzzQueue hold the heap to.
//
// It organizes events as time buckets: events due at the same instant
// share a bucket, and the buckets are ordered by a binary heap on
// (time, creation seq), so the heap is touched once per bucket rather
// than once per event.

// bucket holds the payloads due at one simulated instant, in
// scheduling order. next is the drain cursor: slots[:next] have fired.
type bucket struct {
	time  float64
	seq   uint64 // creation order; heap tie-break = FIFO across same-time buckets
	next  int
	slots []int32
}

type refQueue struct {
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

func newRefQueue() *refQueue {
	return &refQueue{last: -1}
}

func (q *refQueue) Now() float64 { return q.now }

func (q *refQueue) Len() int { return q.pending }

func (q *refQueue) Fired() uint64 { return q.fired }

func (q *refQueue) bucketFor(t float64) int32 {
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

func (q *refQueue) SetIndexFn(fn func(int32)) {
	if fn == nil {
		panic("event: nil index dispatch")
	}
	q.ixFn = fn
}

func (q *refQueue) AtIndex(t float64, v int32) {
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
func (q *refQueue) popHead() {
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

func (q *refQueue) StepBatch() int {
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

func (q *refQueue) Run() {
	for q.StepBatch() > 0 {
	}
}

func (q *refQueue) RunUntil(deadline float64) int {
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

func (q *refQueue) NextTime() (float64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.arena[q.heap[0]].time, true
}

func (q *refQueue) heapLess(a, b int32) bool {
	x, y := &q.arena[a], &q.arena[b]
	if x.time != y.time {
		return x.time < y.time
	}
	return x.seq < y.seq
}

func (q *refQueue) pushBucket(bi int32) {
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

func (q *refQueue) siftDown(i int) {
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
