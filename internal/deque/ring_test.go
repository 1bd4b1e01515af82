package deque

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestRingBasics(t *testing.T) {
	d := NewRing[int](nil)
	if _, ok := d.PopBottom(); ok {
		t.Error("PopBottom on empty should fail")
	}
	if _, ok := d.Steal(); ok {
		t.Error("Steal on empty should fail")
	}
	for i := 1; i <= 5; i++ {
		d.PushBottom(i)
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	if v, _ := d.Steal(); v != 1 {
		t.Errorf("Steal = %d, want 1 (FIFO end)", v)
	}
	if v, _ := d.PopBottom(); v != 5 {
		t.Errorf("PopBottom = %d, want 5 (LIFO end)", v)
	}
}

// TestRingAgainstLockedOracle is the satellite property test: random
// operation sequences — including stretches that force ring growth and
// index wraparound — must produce results identical to the Locked
// reference on every operation.
func TestRingAgainstLockedOracle(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		rng := xrand.New(seed)
		ops := int(opsRaw%800) + 100
		r := NewRing[int](nil)
		l := NewLocked[int]()
		next := 0
		for i := 0; i < ops; i++ {
			// Weighted mix: pushes slightly favored so the deque deepens
			// past the initial capacity (growth), with pop/steal churn
			// advancing top far beyond the capacity (wraparound).
			switch rng.Intn(7) {
			case 0, 1, 2:
				r.PushBottom(next)
				l.PushBottom(next)
				next++
			case 3, 4:
				rv, rok := r.PopBottom()
				lv, lok := l.PopBottom()
				if rok != lok || (rok && rv != lv) {
					return false
				}
			case 5, 6:
				rv, rok := r.Steal()
				lv, lok := l.Steal()
				if rok != lok || (rok && rv != lv) {
					return false
				}
			}
			if r.Len() != l.Len() {
				return false
			}
		}
		// Drain both fully from alternating ends; tails must match too.
		for {
			rv, rok := r.Steal()
			lv, lok := l.Steal()
			if rok != lok || (rok && rv != lv) {
				return false
			}
			if !rok {
				break
			}
			rv, rok = r.PopBottom()
			lv, lok = l.PopBottom()
			if rok != lok || (rok && rv != lv) {
				return false
			}
			if !rok {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRingGrowthPreservesOrder pushes far past the initial capacity with
// the top already advanced, so growth must relocate a wrapped window.
func TestRingGrowthPreservesOrder(t *testing.T) {
	d := NewRing[int](nil)
	for i := 0; i < initialRingCap-2; i++ {
		d.PushBottom(i)
	}
	// Advance top so the live window wraps the ring edge after refill.
	for i := 0; i < initialRingCap/2; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("pre-grow steal = %d,%v want %d", v, ok, i)
		}
	}
	for i := initialRingCap - 2; i < 5000; i++ {
		d.PushBottom(i)
	}
	for i := initialRingCap / 2; i < 5000; i++ {
		v, ok := d.Steal()
		if !ok || v != i {
			t.Fatalf("post-grow steal = %d,%v want %d", v, ok, i)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after drain", d.Len())
	}
}

// TestRingWraparoundShallow keeps the deque shallow while cycling many
// times the ring capacity through it, so every slot index wraps
// repeatedly without ever growing.
func TestRingWraparoundShallow(t *testing.T) {
	d := NewRing[int](nil)
	rng := xrand.New(11)
	expectTop := 0
	next := 0
	depth := 0
	for next < 20000 {
		d.PushBottom(next)
		next++
		depth++
		if depth > 3 || rng.Intn(2) == 0 {
			if v, ok := d.Steal(); !ok || v != expectTop {
				t.Fatalf("steal = %d,%v want %d", v, ok, expectTop)
			}
			expectTop++
			depth--
		}
	}
	for ; expectTop < next; expectTop++ {
		if v, ok := d.Steal(); !ok || v != expectTop {
			t.Fatalf("drain steal = %d,%v want %d", v, ok, expectTop)
		}
	}
}

func TestRingStructValues(t *testing.T) {
	type payload struct{ a, b int }
	d := NewRing[payload](nil)
	d.PushBottom(payload{1, 2})
	v, ok := d.PopBottom()
	if !ok || v.a != 1 || v.b != 2 {
		t.Errorf("struct round-trip = %+v,%v", v, ok)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	d := NewRing[int](nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.PopBottom()
	}
}

func BenchmarkRingPushSteal(b *testing.B) {
	d := NewRing[int](nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.Steal()
	}
}

// A ring over slots sized for what it will hold never allocates, and a
// push past them moves it to a larger array without losing order.
func TestRingOverSlots(t *testing.T) {
	slots := make([]int, 4)
	d := NewRing(slots)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			d.PushBottom(i)
		}
		d.Steal()
		d.PopBottom()
		d.PopBottom()
		d.Steal()
	}); n != 0 {
		t.Errorf("a ring within its slots allocated %v times, want 0", n)
	}
	for i := 0; i < 6; i++ {
		d.PushBottom(i)
	}
	for i := 0; i < 6; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("steal %d = %d,%v after growing past the slots", i, v, ok)
		}
	}
	var zero Ring[int]
	zero.PushBottom(7)
	if v, ok := zero.PopBottom(); !ok || v != 7 {
		t.Errorf("zero Ring round-trip = %d,%v", v, ok)
	}
}
