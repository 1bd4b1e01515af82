// The schedule explorer: a context-bounded depth-first search over the
// interleavings of one owner and K thieves operating on the step-model
// deque (model_test.go), asserting after every complete execution that the
// outcome is linearizable against the deque.Locked oracle and that the
// conservation invariants hold.
//
// Exploration is bounded the CHESS way (Musuvathi & Qadeer, PLDI 2007):
// a context switch away from a thread that could still step costs one
// preemption, a switch at thread completion is free, and schedules with
// more than Scenario.Preempt preemptions are pruned. Work-stealing
// deque bugs are shallow — every seeded mutant here needs at most two
// preemptions to manifest — so a small bound explores the dangerous
// schedules while keeping the search inside the tier-1 test budget.

package check

import (
	"fmt"
	"sort"

	"repro/internal/deque"
)

// Scenario is one bounded exploration: fixed thread programs, an
// initial ring capacity (small, to put grow and wraparound in reach of
// short programs), a mutation, and the preemption bound.
type Scenario struct {
	// Owner is the owner thread's program (PushBottom/PopBottom only).
	Owner []Op
	// Thieves are the thief programs (Steal only).
	Thieves [][]Op
	// RingCap is the model ring's initial capacity (power of two ≥ 2).
	// Small values force growth and index wraparound early.
	RingCap int64
	// Preempt is the preemption bound; < 0 explores every interleaving.
	Preempt int
	// Mut selects a seeded bug (MutNone checks the real algorithm).
	Mut Mutation
	// MaxExecs caps the number of complete executions (0 = 4_000_000),
	// a safety net against accidentally unbounded scenarios.
	MaxExecs int
}

// Report summarizes one exploration.
type Report struct {
	// Execs is the number of complete interleavings checked.
	Execs int
	// Violations holds the first failures found (exploration stops
	// after the first violating execution).
	Violations []scheduledViolation
	// Truncated reports that MaxExecs cut the search short.
	Truncated bool
}

// Failed reports whether the exploration found any violation.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// scheduledViolation is a Violation with the schedule that produced it.
type scheduledViolation struct {
	Violation
	// Schedule is the thread id chosen at each global step (owner = 0,
	// thief i = i+1), enough to replay the interleaving by hand.
	Schedule []int
}

func (v scheduledViolation) String() string {
	return fmt.Sprintf("%s (schedule %v)", v.Violation, v.Schedule)
}

// world is one node of the search: deque state, thread states, and the
// schedule prefix that led here.
type world struct {
	st      dstate
	threads []*thr
	sched   []int
	steps   int
}

func (w *world) clone() *world {
	c := &world{
		st:      w.st.clone(),
		threads: make([]*thr, len(w.threads)),
		sched:   append([]int(nil), w.sched...),
		steps:   w.steps,
	}
	for i, th := range w.threads {
		c.threads[i] = th.clone()
	}
	return c
}

// Explore runs the bounded DFS and returns the report.
func Explore(s Scenario) Report {
	if s.RingCap < 2 {
		s.RingCap = 2
	}
	if s.MaxExecs <= 0 {
		s.MaxExecs = 4_000_000
	}
	pushed := map[int64]bool{}
	for _, op := range s.Owner {
		if op.Kind == OpPush {
			if pushed[op.Val] {
				panic("check: scenario pushes duplicate value " + fmt.Sprint(op.Val))
			}
			pushed[op.Val] = true
		}
	}

	root := &world{st: newDstate(s.RingCap)}
	owner := &thr{id: 0, prog: s.Owner}
	root.threads = append(root.threads, owner)
	for i, p := range s.Thieves {
		root.threads = append(root.threads, &thr{id: i + 1, prog: p})
	}

	rep := Report{}
	var dfs func(w *world, cur, preempts int)
	dfs = func(w *world, cur, preempts int) {
		if rep.Failed() || rep.Truncated {
			return
		}
		running := 0
		for _, th := range w.threads {
			if !th.done() {
				running++
			}
		}
		if running == 0 {
			rep.Execs++
			if rep.Execs >= s.MaxExecs {
				rep.Truncated = true
			}
			if vs := checkExecution(w, pushed); len(vs) > 0 {
				rep.Violations = vs
			}
			return
		}
		curEnabled := cur >= 0 && !w.threads[cur].done()
		for id := range w.threads {
			if w.threads[id].done() {
				continue
			}
			np := preempts
			if curEnabled && id != cur {
				if s.Preempt >= 0 && preempts >= s.Preempt {
					continue // switching away from a runnable thread is a preemption
				}
				np = preempts + 1
			}
			nw := w.clone()
			th := nw.threads[id]
			th.step(&nw.st, s.Mut, nw.steps)
			nw.sched = append(nw.sched, id)
			nw.steps++
			if v := checkStep(nw); v != nil {
				rep.Execs++
				rep.Violations = append(rep.Violations, *v)
				return
			}
			dfs(nw, id, np)
			if rep.Failed() || rep.Truncated {
				return
			}
		}
	}
	dfs(root, -1, 0)
	return rep
}

// checkStep asserts the per-step bounds: bottom may transiently dip
// one below top (PopBottom's empty probe) but never further, and the
// size estimate never exceeds the number of pushes so far.
func checkStep(w *world) *scheduledViolation {
	if d := w.st.bottom - w.st.top; d < -1 {
		return &scheduledViolation{
			Violation: Violation{
				Invariant: "len-bounds",
				Detail:    fmt.Sprintf("bottom-top = %d (< -1): bottom under-run past the empty probe", d),
			},
			Schedule: append([]int(nil), w.sched...),
		}
	}
	return nil
}

// checkExecution verifies one complete interleaving:
//
//   - conservation: every pushed value is delivered exactly once,
//     counting the values still in the deque at the barrier (drained
//     by direct state inspection, so a mutant cannot hide losses
//     behind its own broken operations);
//   - no phantoms: nothing delivered that was never pushed, and no
//     hole (never-written slot) ever surfaces;
//   - steal monotonicity: successful steals claim strictly increasing
//     deque indices in linearization order — top only moves forward;
//   - linearizability: replaying every successful operation at its
//     linearization point against the deque.Locked oracle yields the
//     same values, and the oracle holds exactly the drained remainder.
func checkExecution(w *world, pushed map[int64]bool) []scheduledViolation {
	sched := append([]int(nil), w.sched...)
	var vs []scheduledViolation
	fail := func(inv, format string, args ...any) {
		vs = append(vs, scheduledViolation{Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)}, sched})
	}

	// Collect successful results in linearization order.
	type ev struct {
		opResult
		thread int
	}
	var events []ev
	for _, th := range w.threads {
		for _, res := range th.results {
			if res.Ok {
				events = append(events, ev{res, th.id})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Lin < events[j].Lin })

	// Drain the final state by inspection: [top, bottom) of the
	// published ring is what a barrier would hand the next batch.
	var drained []int64
	for i := w.st.top; i < w.st.bottom; i++ {
		drained = append(drained, w.st.rings[w.st.cur].get(i))
	}

	// Conservation and phantoms.
	seen := map[int64]int{}
	for _, e := range events {
		if e.Kind == OpPush {
			continue
		}
		if e.Val == hole {
			fail("phantom", "thread %d %v delivered a never-written slot", e.thread, e.Kind)
			continue
		}
		if !pushed[e.Val] {
			fail("phantom", "thread %d delivered %d which was never pushed", e.thread, e.Val)
			continue
		}
		seen[e.Val]++
	}
	for _, v := range drained {
		if v == hole {
			fail("conservation", "deque window holds a never-written slot at the barrier")
			continue
		}
		if !pushed[v] {
			fail("phantom", "deque window holds %d which was never pushed", v)
			continue
		}
		seen[v]++
	}
	for v, n := range seen {
		if n > 1 {
			fail("conservation", "value %d delivered %d times", v, n)
		}
	}
	for v := range pushed {
		if seen[v] == 0 {
			fail("conservation", "value %d lost", v)
		}
	}

	// Steal monotonicity.
	lastIdx := int64(-1)
	for _, e := range events {
		if e.Kind != OpSteal {
			continue
		}
		if e.Idx <= lastIdx {
			fail("steal-order", "steal claimed index %d after index %d", e.Idx, lastIdx)
		}
		lastIdx = e.Idx
	}

	// Linearizability replay against the real Locked oracle.
	oracle := deque.NewLocked[int64]()
	for _, e := range events {
		switch e.Kind {
		case OpPush:
			oracle.PushBottom(e.Val)
		case OpPop:
			ov, ok := oracle.PopBottom()
			if !ok || ov != e.Val {
				fail("linearizability", "pop returned %d but oracle has %d (ok=%v) at that linearization point", e.Val, ov, ok)
			}
		case OpSteal:
			ov, ok := oracle.Steal()
			if !ok || ov != e.Val {
				fail("linearizability", "steal returned %d but oracle has %d (ok=%v) at that linearization point", e.Val, ov, ok)
			}
		}
	}
	for i := 0; ; i++ {
		ov, ok := oracle.Steal()
		if !ok {
			if i != len(drained) {
				fail("linearizability", "oracle drained %d values, deque window holds %d", i, len(drained))
			}
			break
		}
		if i >= len(drained) {
			fail("linearizability", "oracle holds extra value %d past the deque window", ov)
			break
		}
		if ov != drained[i] {
			fail("linearizability", "barrier remainder mismatch at %d: deque %d, oracle %d", i, drained[i], ov)
		}
	}
	return vs
}
