package sched

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
)

// sumRecorder totals the execution span-seconds the engine reports —
// the trace-side view of busy time.
type sumRecorder struct {
	busy  float64
	spans int
}

func (r *sumRecorder) Record(core int, start, end float64, label string, level int) {
	r.busy += end - start
	r.spans++
}

// The machine charges a core as Busy from acquire (after probing and
// possibly stealing) to completion, while the trace records the span
// [done-exec, done]. The engine reclassifies the probe/steal lead as
// Spinning at completion, so the two views of busy time must agree
// exactly — this pins the ISSUE 9 accounting-skew fix.
func TestTraceBusySecondsMatchMachineBusySeconds(t *testing.T) {
	cfg := machine.Opteron16()
	w := tiny(4)
	tasks := 0
	for _, b := range w.Batches {
		tasks += len(b.Tasks)
	}
	for _, p := range []policy.Policy{policy.NewCilk(), policy.NewCilkD(4), policy.NewEEWA()} {
		rec := &sumRecorder{}
		params := Params{}
		params.Recorder = rec
		res, err := Run(cfg, w, p, params)
		if err != nil {
			t.Fatalf("Run(%s): %v", p.Name(), err)
		}
		if rec.spans != tasks {
			t.Errorf("%s: %d spans recorded, want %d", p.Name(), rec.spans, tasks)
		}
		// The fix only matters when leads actually occurred (probes beyond
		// the first, steals); make sure the workload exercised them.
		if res.Probes <= tasks {
			t.Errorf("%s: no probe lead exercised (probes=%d tasks=%d)", p.Name(), res.Probes, tasks)
		}
		diff := math.Abs(rec.busy - res.BusyTime)
		if diff > 1e-9*math.Max(1, rec.busy) {
			t.Errorf("%s: trace busy %g != machine busy %g (diff %g) — probe/steal lead charged as Busy outside any span",
				p.Name(), rec.busy, res.BusyTime, diff)
		}
		// The lead didn't vanish: it moved into the spin counter, and the
		// state identity busy+spin+halt == cores×makespan still closes.
		lhs := res.BusyTime + res.SpinTime + res.HaltTime
		rhs := float64(cfg.Cores) * res.Makespan
		if math.Abs(lhs-rhs) > 1e-6*rhs {
			t.Errorf("%s: state identity broken: busy+spin+halt=%g, cores*makespan=%g", p.Name(), lhs, rhs)
		}
	}
}
