package event

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ---------------------------------------------------------------------------
// Contract tests for Len and the batched drain path.
// ---------------------------------------------------------------------------

func TestLenReportsPendingNotHeapSize(t *testing.T) {
	q, _ := recorder()
	if q.Len() != 0 {
		t.Fatalf("fresh queue: Len=%d, want 0", q.Len())
	}
	q.AtIndex(1, 0)
	q.AtIndex(1, 1)
	q.AtIndex(2, 2)
	if q.Len() != 3 {
		t.Fatalf("after 3 AtIndex over 2 buckets: Len=%d, want 3", q.Len())
	}
	q.StepBatch()
	if q.Len() != 1 {
		t.Fatalf("after StepBatch: Len=%d, want 1", q.Len())
	}
	q.Run()
	if q.Len() != 0 {
		t.Fatalf("after Run: Len=%d, want 0", q.Len())
	}
}

func TestStepBatchDrainsOneTimestamp(t *testing.T) {
	q, order := recorder()
	for i := int32(0); i < 5; i++ {
		q.AtIndex(1, i)
	}
	q.AtIndex(2, 99)
	if n := q.StepBatch(); n != 5 {
		t.Fatalf("StepBatch = %d, want 5", n)
	}
	if q.Now() != 1 {
		t.Fatalf("Now = %g, want 1", q.Now())
	}
	if !slices.Equal(*order, []int32{0, 1, 2, 3, 4}) {
		t.Fatalf("fired %v, want exactly the five t=1 events in FIFO order", *order)
	}
	if n := q.StepBatch(); n != 1 {
		t.Fatalf("second StepBatch = %d, want 1", n)
	}
	if n := q.StepBatch(); n != 0 {
		t.Fatalf("StepBatch on empty queue = %d, want 0", n)
	}
}

// Events scheduled at the current instant from inside a draining batch
// must run in the same batch — the engine relies on this for same-time
// completion → coreFree cascades — whether they land in the bucket
// being drained or in a fresh one.
func TestStepBatchIncludesSameTimeAppends(t *testing.T) {
	q := New()
	var order []int32
	q.SetIndexFn(func(v int32) {
		order = append(order, v)
		if v == 0 {
			q.AtIndex(1, 2)
			q.AtIndex(5, 9) // moves the bucket cache off t=1
			q.AtIndex(1, 3)
		}
	})
	q.AtIndex(1, 0)
	q.AtIndex(1, 1)
	if n := q.StepBatch(); n != 4 {
		t.Fatalf("StepBatch = %d, want 4 (same-time appends join the batch)", n)
	}
	if want := []int32{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// Scheduling that alternates between two instants opens a new bucket at
// every switch; the (time, seq) heap order still fires each instant's
// events in scheduling order.
func TestAtIndexInterleavesFIFO(t *testing.T) {
	q, order := recorder()
	for i := int32(0); i < 6; i++ {
		q.AtIndex(float64(1+i%2), i)
	}
	if n := q.StepBatch(); n != 3 {
		t.Fatalf("StepBatch = %d, want 3", n)
	}
	q.Run()
	if want := []int32{0, 2, 4, 1, 3, 5}; !slices.Equal(*order, want) {
		t.Fatalf("order = %v, want %v", *order, want)
	}
}

// ---------------------------------------------------------------------------
// Model-based testing: an op interpreter drives the real queue and a
// sorted-slice oracle in lockstep, checking fire order, Len, Now and
// NextTime after every operation. The same interpreter backs the
// randomized test here and FuzzQueue.
// ---------------------------------------------------------------------------

// oracleEv mirrors one scheduled event. Pending events live in
// scheduling order; selection is (min time, earliest scheduled), which
// is exactly the queue's (time, FIFO-within-time) contract. An event
// with child ≥ 0 schedules event id+1 at its own time + child when it
// fires, as the real callback does.
type oracleEv struct {
	id    int32
	time  float64
	child float64
}

type model struct {
	t      *testing.T
	q      *Queue
	oracle []oracleEv
	child  map[int32]float64 // the real callback's follow-ups, by parent id
	fired  []int32           // ids observed from the real callback, in fire order
	now    float64
	nextID int32
}

func newModel(t *testing.T) *model {
	m := &model{t: t, q: New(), child: map[int32]float64{}}
	m.q.SetIndexFn(func(v int32) {
		m.fired = append(m.fired, v)
		if d, ok := m.child[v]; ok {
			delete(m.child, v)
			m.q.AtIndex(m.q.Now()+d, v+1)
		}
	})
	return m
}

// schedule schedules one event at tm; with child ≥ 0 it reserves the
// next id for the follow-up the event schedules when it fires.
func (m *model) schedule(tm, child float64) {
	id := m.nextID
	m.nextID++
	if child >= 0 {
		m.child[id] = child
		m.nextID++
	}
	m.q.AtIndex(tm, id)
	m.oracle = append(m.oracle, oracleEv{id: id, time: tm, child: child})
}

// pop removes and returns the oracle's next event if it is due by
// limit, scheduling its follow-up as the real callback does.
func (m *model) pop(limit float64) (int32, bool) {
	best := -1
	for i, e := range m.oracle {
		if best < 0 || e.time < m.oracle[best].time {
			best = i
		}
	}
	if best < 0 || m.oracle[best].time > limit {
		return 0, false
	}
	ev := m.oracle[best]
	m.oracle = append(m.oracle[:best], m.oracle[best+1:]...)
	m.now = ev.time
	if ev.child >= 0 {
		m.oracle = append(m.oracle, oracleEv{id: ev.id + 1, time: ev.time + ev.child, child: -1})
	}
	return ev.id, true
}

// expect checks that the last call fired exactly want, in order.
func (m *model) expect(call string, n, before int, want []int32) {
	if n != len(want) {
		m.t.Fatalf("%s = %d events, oracle expected %d", call, n, len(want))
	}
	if got := m.fired[before:]; !slices.Equal(got, want) {
		m.t.Fatalf("%s order %v, oracle expected %v", call, got, want)
	}
}

func (m *model) stepBatch() {
	before := len(m.fired)
	n := m.q.StepBatch()
	var want []int32
	for limit := math.Inf(1); ; limit = m.now {
		id, ok := m.pop(limit)
		if !ok {
			break
		}
		want = append(want, id)
	}
	m.expect("StepBatch", n, before, want)
}

func (m *model) runUntil(deadline float64) {
	before := len(m.fired)
	n := m.q.RunUntil(deadline)
	var want []int32
	for {
		id, ok := m.pop(deadline)
		if !ok {
			break
		}
		want = append(want, id)
	}
	m.now = deadline
	m.expect("RunUntil", n, before, want)
}

// verify checks every observable against the oracle.
func (m *model) verify() {
	if got, want := m.q.Len(), len(m.oracle); got != want {
		m.t.Fatalf("Len = %d, oracle has %d pending", got, want)
	}
	if m.q.Now() != m.now {
		m.t.Fatalf("Now = %g, oracle clock = %g", m.q.Now(), m.now)
	}
	best := -1
	for i, e := range m.oracle {
		if best < 0 || e.time < m.oracle[best].time {
			best = i
		}
	}
	tm, ok := m.q.NextTime()
	if best < 0 {
		if ok {
			m.t.Fatalf("NextTime = %g,true on oracle-empty queue", tm)
		}
	} else if !ok || tm != m.oracle[best].time {
		m.t.Fatalf("NextTime = %g,%v, oracle head = %g", tm, ok, m.oracle[best].time)
	}
}

// applyOp interprets one fuzz/random operation. Times are drawn from a
// small grid (multiples of 0.5 ahead of now) so duplicate timestamps —
// the bucket machinery's whole point — occur constantly, and a zero
// follow-up delay appends to the instant being drained.
func (m *model) applyOp(op, arg byte) {
	at := m.now + float64(arg%8)*0.5
	switch op % 5 {
	case 0:
		m.schedule(at, -1)
	case 1: // an event that schedules a follow-up when it fires
		m.schedule(at, float64(arg/8%4)*0.5)
	case 2: // a same-time burst
		for i := 0; i <= int(arg/8%4); i++ {
			m.schedule(at, -1)
		}
	case 3:
		m.stepBatch()
	case 4:
		m.runUntil(at)
	}
	m.verify()
}

func (m *model) finish() {
	for m.q.Len() > 0 {
		m.stepBatch()
		m.verify()
	}
	if len(m.oracle) != 0 {
		m.t.Fatalf("queue drained but oracle still holds %d events", len(m.oracle))
	}
}

func TestQueueModelRandomized(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModel(t)
		ops := 200 + rng.Intn(300)
		for i := 0; i < ops; i++ {
			m.applyOp(byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		m.finish()
	}
}
