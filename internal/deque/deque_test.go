package deque

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// both runs a subtest against each implementation.
func both(t *testing.T, fn func(t *testing.T, mk func() Deque[int])) {
	t.Helper()
	t.Run("chase", func(t *testing.T) { fn(t, func() Deque[int] { return NewChase[int]() }) })
	t.Run("locked", func(t *testing.T) { fn(t, func() Deque[int] { return NewLocked[int]() }) })
}

func TestEmpty(t *testing.T) {
	both(t, func(t *testing.T, mk func() Deque[int]) {
		d := mk()
		if _, ok := d.PopBottom(); ok {
			t.Error("PopBottom on empty should fail")
		}
		if _, ok := d.Steal(); ok {
			t.Error("Steal on empty should fail")
		}
		if d.Len() != 0 {
			t.Errorf("Len = %d, want 0", d.Len())
		}
	})
}

func TestOwnerLIFO(t *testing.T) {
	both(t, func(t *testing.T, mk func() Deque[int]) {
		d := mk()
		for i := 1; i <= 5; i++ {
			d.PushBottom(i)
		}
		for want := 5; want >= 1; want-- {
			v, ok := d.PopBottom()
			if !ok || v != want {
				t.Fatalf("PopBottom = %d,%v want %d,true", v, ok, want)
			}
		}
	})
}

func TestThiefFIFO(t *testing.T) {
	both(t, func(t *testing.T, mk func() Deque[int]) {
		d := mk()
		for i := 1; i <= 5; i++ {
			d.PushBottom(i)
		}
		for want := 1; want <= 5; want++ {
			v, ok := d.Steal()
			if !ok || v != want {
				t.Fatalf("Steal = %d,%v want %d,true", v, ok, want)
			}
		}
	})
}

func TestMixedEnds(t *testing.T) {
	both(t, func(t *testing.T, mk func() Deque[int]) {
		d := mk()
		for i := 1; i <= 4; i++ {
			d.PushBottom(i)
		}
		if v, _ := d.Steal(); v != 1 {
			t.Errorf("first steal = %d, want 1", v)
		}
		if v, _ := d.PopBottom(); v != 4 {
			t.Errorf("first pop = %d, want 4", v)
		}
		if d.Len() != 2 {
			t.Errorf("Len = %d, want 2", d.Len())
		}
	})
}

func TestSingleElementRace(t *testing.T) {
	both(t, func(t *testing.T, mk func() Deque[int]) {
		d := mk()
		d.PushBottom(7)
		v, ok := d.PopBottom()
		if !ok || v != 7 {
			t.Fatalf("single-element pop = %d,%v", v, ok)
		}
		// After the contested pop the deque must be reusable.
		d.PushBottom(8)
		if v, ok := d.Steal(); !ok || v != 8 {
			t.Fatalf("reuse after empty = %d,%v", v, ok)
		}
	})
}

func TestGrowth(t *testing.T) {
	both(t, func(t *testing.T, mk func() Deque[int]) {
		d := mk()
		const n = 10000 // forces many ring growths in Chase
		for i := 0; i < n; i++ {
			d.PushBottom(i)
		}
		if d.Len() != n {
			t.Fatalf("Len = %d, want %d", d.Len(), n)
		}
		for i := n - 1; i >= 0; i-- {
			v, ok := d.PopBottom()
			if !ok || v != i {
				t.Fatalf("pop %d = %d,%v", i, v, ok)
			}
		}
	})
}

func TestGrowthPreservesStealOrder(t *testing.T) {
	d := NewChase[int]()
	for i := 0; i < 100; i++ {
		d.PushBottom(i)
	}
	// Steal a few to advance top, then grow.
	for i := 0; i < 10; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("pre-grow steal = %d,%v want %d", v, ok, i)
		}
	}
	for i := 100; i < 5000; i++ {
		d.PushBottom(i)
	}
	for i := 10; i < 5000; i++ {
		v, ok := d.Steal()
		if !ok || v != i {
			t.Fatalf("post-grow steal = %d,%v want %d", v, ok, i)
		}
	}
}

// TestConcurrentOwnerThieves hammers one owner against many thieves and
// checks that every pushed value is consumed exactly once. Run with
// -race to exercise the memory-model claims.
func TestConcurrentOwnerThieves(t *testing.T) {
	for _, impl := range []struct {
		name string
		d    Deque[int]
	}{
		{"chase", NewChase[int]()},
		{"locked", NewLocked[int]()},
	} {
		t.Run(impl.name, func(t *testing.T) {
			d := impl.d
			const total = 100000
			const thieves = 4
			var consumed [total]atomic.Int32
			var wg sync.WaitGroup
			var done atomic.Bool

			for i := 0; i < thieves; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						if v, ok := d.Steal(); ok {
							consumed[v].Add(1)
						}
					}
					// Final drain after the owner stops.
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						consumed[v].Add(1)
					}
				}()
			}

			// Owner: interleave pushes and pops.
			rng := xrand.New(1)
			for i := 0; i < total; i++ {
				d.PushBottom(i)
				if rng.Intn(3) == 0 {
					if v, ok := d.PopBottom(); ok {
						consumed[v].Add(1)
					}
				}
			}
			for {
				v, ok := d.PopBottom()
				if !ok {
					break
				}
				consumed[v].Add(1)
			}
			done.Store(true)
			wg.Wait()
			// Thieves may have grabbed the last elements after the owner
			// saw empty; drain once more.
			for {
				v, ok := d.Steal()
				if !ok {
					break
				}
				consumed[v].Add(1)
			}

			for i := 0; i < total; i++ {
				if n := consumed[i].Load(); n != 1 {
					t.Fatalf("value %d consumed %d times, want exactly 1", i, n)
				}
			}
		})
	}
}

// TestChaseAgainstOracle drives Chase and Locked with the same
// single-threaded operation sequence and requires identical results —
// Locked is trivially correct, so this pins Chase's sequential
// semantics.
func TestChaseAgainstOracle(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		rng := xrand.New(seed)
		ops := int(opsRaw % 500)
		c := NewChase[int]()
		l := NewLocked[int]()
		next := 0
		for i := 0; i < ops; i++ {
			switch rng.Intn(3) {
			case 0:
				c.PushBottom(next)
				l.PushBottom(next)
				next++
			case 1:
				cv, cok := c.PopBottom()
				lv, lok := l.PopBottom()
				if cok != lok || (cok && cv != lv) {
					return false
				}
			case 2:
				cv, cok := c.Steal()
				lv, lok := l.Steal()
				if cok != lok || (cok && cv != lv) {
					return false
				}
			}
			if c.Len() != l.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStealGrowWraparound is the regression test for the hardened
// Steal: one owner keeps the deque shallow while pushing far past the
// ring capacity, so slot indices wrap repeatedly and periodic bursts
// force grows mid-stream — thieves holding stale ring pointers race
// every transition. Every value must still be consumed exactly once.
func TestStealGrowWraparound(t *testing.T) {
	const (
		total   = 60000
		thieves = 4
	)
	d := NewChase[int]()
	var consumed [total]atomic.Int32
	var wg sync.WaitGroup
	var done atomic.Bool

	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for !done.Load() {
				if v, ok := d.Steal(); ok {
					consumed[v].Add(1)
					if v <= last {
						t.Errorf("steal order regressed: %d after %d", v, last)
						return
					}
					last = v
				}
			}
			for {
				v, ok := d.Steal()
				if !ok {
					return
				}
				consumed[v].Add(1)
			}
		}()
	}

	rng := xrand.New(3)
	next := 0
	for next < total {
		// Mostly shallow traffic: index wraparound within the current
		// ring. The initial capacity is 8, so a few pushes at depth < 7
		// lap the ring every handful of iterations.
		d.PushBottom(next)
		next++
		if rng.Intn(3) == 0 {
			if v, ok := d.PopBottom(); ok {
				consumed[v].Add(1)
			}
		}
		// Periodic burst: overflow the ring to force a grow while the
		// thieves are mid-steal, then drain back down.
		if next%977 == 0 {
			for j := 0; j < 40 && next < total; j++ {
				d.PushBottom(next)
				next++
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		consumed[v].Add(1)
	}
	done.Store(true)
	wg.Wait()
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		consumed[v].Add(1)
	}

	for i := 0; i < total; i++ {
		if n := consumed[i].Load(); n != 1 {
			t.Fatalf("value %d consumed %d times, want exactly 1", i, n)
		}
	}
}

// TestPopBottomSingleElementCASLoss drives the contested single-element
// pop over and over: owner and one thief race for the last value, so
// PopBottom's CAS-loss path (top advanced under it) and CAS-win path
// both execute many times. Exactly one side must win each round and the
// deque must come back empty and reusable.
func TestPopBottomSingleElementCASLoss(t *testing.T) {
	d := NewChase[int]()
	const rounds = 20000
	var ownerWins, thiefWins int
	start := make(chan struct{})
	res := make(chan int, 1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for range start {
			if v, ok := d.Steal(); ok {
				res <- v
			} else {
				res <- -1
			}
		}
	}()

	for r := 0; r < rounds; r++ {
		d.PushBottom(r)
		start <- struct{}{}
		pv, pok := d.PopBottom()
		sv := <-res
		switch {
		case pok && sv == -1:
			if pv != r {
				t.Fatalf("round %d: owner popped %d", r, pv)
			}
			ownerWins++
		case !pok && sv == r:
			thiefWins++
		case pok && sv == r:
			t.Fatalf("round %d: both sides won the single element", r)
		default:
			// Neither side got it — only legal if it is still queued.
			if v, ok := d.PopBottom(); !ok || v != r {
				t.Fatalf("round %d: value vanished (pop=%v,%v steal=%d)", r, pv, pok, sv)
			}
			ownerWins++
		}
		if d.Len() != 0 {
			t.Fatalf("round %d: Len = %d after the race", r, d.Len())
		}
	}
	close(start)
	wg.Wait()
	if ownerWins == 0 || thiefWins == 0 {
		t.Logf("one-sided outcome: owner=%d thief=%d (scheduling-dependent, not a failure)", ownerWins, thiefWins)
	}
	t.Logf("owner wins %d, thief wins %d", ownerWins, thiefWins)
}

// TestPropertyOwnerThievesOracle is the property test comparing the two
// implementations under the same concurrent protocol: for each seed,
// one owner and N thieves run a randomized push/pop mix against Chase
// and against the Locked oracle, and both must satisfy the identical
// conservation property (every value exactly once). Run under -race,
// this pins Chase's concurrent semantics to the trivially correct
// implementation's.
func TestPropertyOwnerThievesOracle(t *testing.T) {
	impls := []struct {
		name string
		mk   func() Deque[int]
	}{
		{"chase", func() Deque[int] { return NewChase[int]() }},
		{"locked", func() Deque[int] { return NewLocked[int]() }},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, impl := range impls {
			d := impl.mk()
			const total = 8000
			const thieves = 3
			consumed := make([]atomic.Int32, total)
			var wg sync.WaitGroup
			var done atomic.Bool
			for i := 0; i < thieves; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for !done.Load() {
						if v, ok := d.Steal(); ok {
							consumed[v].Add(1)
						}
					}
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						consumed[v].Add(1)
					}
				}(i)
			}
			rng := xrand.New(seed)
			for i := 0; i < total; i++ {
				d.PushBottom(i)
				// Uneven mix: stretches of owner pops, stretches of
				// pure pushes (deque deepens, thieves catch up).
				if rng.Intn(5) < 2 {
					if v, ok := d.PopBottom(); ok {
						consumed[v].Add(1)
					}
				}
			}
			for {
				v, ok := d.PopBottom()
				if !ok {
					break
				}
				consumed[v].Add(1)
			}
			done.Store(true)
			wg.Wait()
			for {
				v, ok := d.Steal()
				if !ok {
					break
				}
				consumed[v].Add(1)
			}
			for i := 0; i < total; i++ {
				if n := consumed[i].Load(); n != 1 {
					t.Fatalf("%s seed %d: value %d consumed %d times, want 1", impl.name, seed, i, n)
				}
			}
			if d.Len() != 0 {
				t.Fatalf("%s seed %d: Len = %d after drain", impl.name, seed, d.Len())
			}
		}
	}
}

func TestStructValues(t *testing.T) {
	type payload struct {
		a, b int
		s    string
	}
	d := NewChase[payload]()
	d.PushBottom(payload{1, 2, "x"})
	v, ok := d.PopBottom()
	if !ok || v.a != 1 || v.b != 2 || v.s != "x" {
		t.Errorf("struct round-trip = %+v,%v", v, ok)
	}
}

// The pointer forms store the caller's pointer itself: what comes out is
// what went in, at both ends, and pushing allocates nothing once the
// ring has grown — the live runtime pushes &slab[i] for every task.
func TestRefFormsKeepIdentityAndAllocateNothing(t *testing.T) {
	slab := make([]int, 64)
	for i := range slab {
		slab[i] = i
	}
	d := NewChase[int]()
	if d.PopBottomRef() != nil || d.StealRef() != nil {
		t.Fatal("empty deque must answer nil at both ends")
	}
	for i := range slab {
		d.PushBottomRef(&slab[i])
	}
	if p := d.StealRef(); p != &slab[0] {
		t.Errorf("StealRef = %p, want the oldest pointer %p", p, &slab[0])
	}
	if p := d.PopBottomRef(); p != &slab[63] {
		t.Errorf("PopBottomRef = %p, want the newest pointer %p", p, &slab[63])
	}
	// The value forms read through the same slots.
	if v, ok := d.Steal(); !ok || v != 1 {
		t.Errorf("Steal = %d,%v, want 1,true", v, ok)
	}
	for d.PopBottomRef() != nil {
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after draining", d.Len())
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range slab {
			d.PushBottomRef(&slab[i])
		}
		for d.StealRef() != nil {
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per 64 PushBottomRef + StealRef, want 0", allocs)
	}
}

func BenchmarkChasePushPop(b *testing.B) {
	d := NewChase[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.PopBottom()
	}
}

func BenchmarkLockedPushPop(b *testing.B) {
	d := NewLocked[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(i)
		d.PopBottom()
	}
}

func BenchmarkChaseStealContention(b *testing.B) {
	d := NewChase[int]()
	for i := 0; i < 1<<20; i++ {
		d.PushBottom(i)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d.Steal()
		}
	})
}
