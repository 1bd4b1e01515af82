package event

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// recorder returns a queue whose events append their payload to the
// returned slice, in fire order.
func recorder() (*Queue, *[]int32) {
	q := New()
	order := new([]int32)
	q.SetIndexFn(func(v int32) { *order = append(*order, v) })
	return q, order
}

func TestFIFOAtSameTime(t *testing.T) {
	q, order := recorder()
	for i := int32(0); i < 10; i++ {
		q.AtIndex(1.0, i)
	}
	q.Run()
	if len(*order) != 10 {
		t.Fatalf("fired %v, want ten events", *order)
	}
	for i, v := range *order {
		if v != int32(i) {
			t.Fatalf("same-time events fired out of order: %v", *order)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	times := []float64{5, 1, 3, 2, 4, 0.5}
	q := New()
	var order []float64
	q.SetIndexFn(func(v int32) { order = append(order, times[v]) })
	for i, tm := range times {
		q.AtIndex(tm, int32(i))
	}
	q.Run()
	if len(order) != len(times) || !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of time order: %v", order)
	}
	if q.Now() != 5 {
		t.Errorf("clock = %g, want 5", q.Now())
	}
}

// TestAfterUsesCurrentClock: an event scheduled from inside a callback
// at Now()+d fires d after the callback's instant, not d after zero.
func TestAfterUsesCurrentClock(t *testing.T) {
	q := New()
	var firedAt float64
	q.SetIndexFn(func(v int32) {
		if v == 0 {
			q.AtIndex(q.Now()+3, 1)
			return
		}
		firedAt = q.Now()
	})
	q.AtIndex(2, 0)
	q.Run()
	if firedAt != 5 {
		t.Errorf("relative event fired at %g, want 5", firedAt)
	}
}

// TestStepReturnsFalseWhenEmpty: a single step on an empty queue runs
// nothing, one with a pending event runs it, and one after the drain
// runs nothing again.
func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	q, _ := recorder()
	if q.StepBatch() != 0 {
		t.Error("StepBatch on empty queue should return 0")
	}
	q.AtIndex(1, 0)
	if q.StepBatch() != 1 {
		t.Error("StepBatch with one pending event should return 1")
	}
	if q.StepBatch() != 0 {
		t.Error("StepBatch after drain should return 0")
	}
}

func TestRunUntil(t *testing.T) {
	q, fired := recorder()
	for i, tm := range []float64{1, 2, 3, 4} {
		q.AtIndex(tm, int32(i))
	}
	n := q.RunUntil(2.5)
	if n != 2 {
		t.Errorf("RunUntil executed %d events, want 2", n)
	}
	if q.Now() != 2.5 {
		t.Errorf("clock = %g, want 2.5 after RunUntil", q.Now())
	}
	q.Run()
	if len(*fired) != 4 {
		t.Errorf("total fired = %d, want 4", len(*fired))
	}
}

func TestRunUntilExactBoundaryInclusive(t *testing.T) {
	q, fired := recorder()
	q.AtIndex(2, 0)
	q.RunUntil(2)
	if len(*fired) != 1 {
		t.Error("event at the deadline should fire")
	}
}

func TestNextTime(t *testing.T) {
	q, _ := recorder()
	if _, ok := q.NextTime(); ok {
		t.Error("NextTime on empty queue should report false")
	}
	q.AtIndex(5, 1)
	q.AtIndex(3, 0)
	if tm, ok := q.NextTime(); !ok || tm != 3 {
		t.Errorf("NextTime = %g,%v want 3,true", tm, ok)
	}
	q.StepBatch()
	if tm, ok := q.NextTime(); !ok || tm != 5 {
		t.Errorf("NextTime after one batch = %g,%v want 5,true", tm, ok)
	}
	q.Run()
	if _, ok := q.NextTime(); ok {
		t.Error("NextTime on a drained queue should report false")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	q := New()
	mustPanic(t, "AtIndex before SetIndexFn", func() { q.AtIndex(1, 0) })
	mustPanic(t, "SetIndexFn nil", func() { q.SetIndexFn(nil) })
	q.SetIndexFn(func(int32) {})
	q.AtIndex(5, 0)
	q.Run()
	mustPanic(t, "past", func() { q.AtIndex(1, 0) })
	mustPanic(t, "nan", func() { q.AtIndex(math.NaN(), 0) })
	mustPanic(t, "inf", func() { q.AtIndex(math.Inf(1), 0) })
	mustPanic(t, "negative payload", func() { q.AtIndex(6, -1) })
	mustPanic(t, "RunUntil past", func() { q.RunUntil(1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestFiredCounter(t *testing.T) {
	q, _ := recorder()
	for i := 0; i < 7; i++ {
		q.AtIndex(float64(i), int32(i))
	}
	q.AtIndex(100, 7)
	q.RunUntil(50)
	if q.Fired() != 7 {
		t.Errorf("Fired = %d, want 7 (events past the deadline don't count)", q.Fired())
	}
	q.Run()
	if q.Fired() != 8 {
		t.Errorf("Fired = %d, want 8 after Run", q.Fired())
	}
}

func TestCascadingSchedule(t *testing.T) {
	// An event chain where each event schedules the next relative to the
	// current clock models how the simulator advances cores task by task.
	q := New()
	count := 0
	q.SetIndexFn(func(int32) {
		count++
		if count < 100 {
			q.AtIndex(q.Now()+0.5, 0)
		}
	})
	q.AtIndex(0.5, 0)
	q.Run()
	if count != 100 {
		t.Errorf("chain executed %d steps, want 100", count)
	}
	if got, want := q.Now(), 50.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("clock = %g, want %g", got, want)
	}
}

// Property: for any random set of event times, execution order is a
// non-decreasing time sequence and all events fire exactly once.
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int(n%64) + 1
		times := make([]float64, total)
		q := New()
		var fired []float64
		q.SetIndexFn(func(v int32) { fired = append(fired, times[v]) })
		for i := range times {
			times[i] = rng.Float64() * 100
			q.AtIndex(times[i], int32(i))
		}
		q.Run()
		return len(fired) == total && sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
