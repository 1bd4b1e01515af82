// Randomized long-stress mode: unlike the explorer, which checks the
// *model* under every bounded schedule, Stress hammers the *real*
// internal/deque implementations under the Go scheduler, with
// preemption injection (runtime.Gosched at random points) and
// ring-growth/wraparound pressure, and checks the same conservation
// properties. Run it under -race: the explorer proves the algorithm,
// the stress run checks the transliteration.

package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deque"
	"repro/internal/xrand"
)

// StressConfig configures one stress run.
type StressConfig struct {
	// Thieves is the number of concurrent stealing goroutines.
	Thieves int
	// Duration is the total run budget; rounds start until it expires.
	Duration time.Duration
	// Seed drives all randomness (op mix, preemption points, round
	// shapes); a fixed seed fixes the generated load, not the
	// interleavings — those stay up to the scheduler.
	Seed uint64
	// PreemptEveryN injects a runtime.Gosched about every N deque
	// operations on every goroutine (0 disables injection).
	PreemptEveryN int
	// Locked stresses the mutex oracle instead of Chase — a harness
	// self-check: the oracle must pass everything Chase must pass.
	Locked bool
}

// chase drives a Chase through the value-form Deque the stress rounds
// use: each pushed value is boxed, each taken pointer unboxed.
type chase struct{ d *deque.Chase[int] }

func (c chase) PushBottom(v int)       { c.d.PushBottomRef(&v) }
func (c chase) PopBottom() (int, bool) { return unbox(c.d.PopBottomRef()) }
func (c chase) Steal() (int, bool)     { return unbox(c.d.StealRef()) }
func (c chase) Len() int               { return c.d.Len() }

func unbox(p *int) (int, bool) {
	if p == nil {
		return 0, false
	}
	return *p, true
}

// StressReport is the outcome of a stress run.
type StressReport struct {
	// Rounds is the number of push/drain rounds completed.
	Rounds int
	// Pushed, Popped and Stolen count operations across all rounds.
	Pushed, Popped, Stolen int64
	// Grows estimates ring growths (rounds × growth per round shape).
	Grows int
	// Violations holds conservation failures (empty on success).
	Violations []Violation
}

// Failed reports whether the stress run found any violation.
func (r *StressReport) Failed() bool { return len(r.Violations) > 0 }

// Stress runs rounds of one-owner/K-thief load against a fresh deque
// per round, alternating large rounds (thousands of values: ring
// growth, index wraparound) with tiny rounds (1–4 values: the
// single-element CAS races), and verifies after each round's barrier
// that every pushed value was delivered exactly once.
func Stress(cfg StressConfig) StressReport {
	if cfg.Thieves <= 0 {
		cfg.Thieves = 3
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 200 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rep := StressReport{}
	deadline := time.Now().Add(cfg.Duration)
	rootRNG := xrand.New(cfg.Seed)

	for round := 0; time.Now().Before(deadline); round++ {
		var n int
		if round%4 == 3 {
			n = 1 + rootRNG.Intn(4) // tiny round: single-element races
		} else {
			n = 512 + rootRNG.Intn(4096) // growth + wraparound pressure
			rep.Grows++
		}
		var d deque.Deque[int]
		if cfg.Locked {
			d = deque.NewLocked[int]()
		} else {
			d = chase{deque.NewChase[int]()}
		}
		vs := stressRound(d, n, cfg, cfg.Seed+uint64(round)*0x9E3779B97F4A7C15, &rep)
		rep.Rounds++
		if len(vs) > 0 {
			for i := range vs {
				vs[i].Detail = fmt.Sprintf("round %d (n=%d): %s", round, n, vs[i].Detail)
			}
			rep.Violations = append(rep.Violations, vs...)
			return rep // state is corrupt; later rounds would double-report
		}
	}
	return rep
}

func stressRound(d deque.Deque[int], n int, cfg StressConfig, seed uint64, rep *StressReport) []Violation {
	consumed := make([]atomic.Int32, n)
	var done atomic.Bool
	var wg sync.WaitGroup
	var popped, stolen atomic.Int64

	maybePreempt := func(rng *xrand.RNG) {
		if cfg.PreemptEveryN > 0 && rng.Intn(cfg.PreemptEveryN) == 0 {
			runtime.Gosched()
		}
	}

	for i := 0; i < cfg.Thieves; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New(seed + uint64(id) + 1)
			last := -1
			record := func(v int) bool {
				consumed[v].Add(1)
				stolen.Add(1)
				// Steal order is globally monotone in push order, so it
				// is monotone per thief in particular.
				ok := v > last
				last = v
				return ok
			}
			for !done.Load() {
				maybePreempt(rng)
				if v, ok := d.Steal(); ok && !record(v) {
					return // the final exactly-once sweep will also fail loudly
				}
			}
			for { // drain after the owner stops
				v, ok := d.Steal()
				if !ok {
					return
				}
				if !record(v) {
					return
				}
			}
		}(i)
	}

	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		d.PushBottom(i)
		maybePreempt(rng)
		if rng.Intn(3) == 0 {
			if v, ok := d.PopBottom(); ok {
				consumed[v].Add(1)
				popped.Add(1)
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		consumed[v].Add(1)
		popped.Add(1)
	}
	done.Store(true)
	wg.Wait()
	for { // thieves may have lost a last-element race to nobody
		v, ok := d.Steal()
		if !ok {
			break
		}
		consumed[v].Add(1)
		stolen.Add(1)
	}

	rep.Pushed += int64(n)
	rep.Popped += popped.Load()
	rep.Stolen += stolen.Load()

	var vs []Violation
	for v := 0; v < n; v++ {
		if c := consumed[v].Load(); c != 1 {
			vs = append(vs, Violation{
				Invariant: "conservation",
				Detail:    fmt.Sprintf("value %d consumed %d times, want exactly 1", v, c),
			})
			if len(vs) >= 8 {
				break
			}
		}
	}
	if l := d.Len(); l != 0 && len(vs) == 0 {
		vs = append(vs, Violation{
			Invariant: "len-bounds",
			Detail:    fmt.Sprintf("Len = %d after full drain, want 0", l),
		})
	}
	return vs
}
