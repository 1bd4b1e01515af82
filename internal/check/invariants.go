// Runtime invariants: cheap algebraic checks the live runtime
// (internal/rt) evaluates at batch boundaries, and the job service
// (internal/serve) per served job, when invariant checking is enabled
// (Config.Invariants or the eewa_check build tag). They catch exactly
// the silent corruptions that would invalidate the makespan/energy
// comparisons against the paper: a lost or doubled task, wall time
// leaking out of the energy decomposition, a plan that violates
// Algorithm 1's own constraints, and a stretch of a request's life
// that belongs to no span.

package check

import (
	"fmt"
	"math"

	"repro/internal/cgroup"
)

// TaskConservation verifies that each of the batch's spawned tasks was
// executed exactly once (execs[i] is the execution count of task i).
func TaskConservation(execs []int32) []Violation {
	var vs []Violation
	for i, n := range execs {
		if n != 1 {
			vs = append(vs, Violation{
				Invariant: "task-conservation",
				Detail:    fmt.Sprintf("task %d executed %d times, want exactly 1", i, n),
			})
			if len(vs) >= 8 {
				break
			}
		}
	}
	return vs
}

// EnergyIdentity verifies one worker's wall-time decomposition:
// busy + search + dry + halt − residual must equal wall to within tol
// seconds, and the residual (time the accounting had to clip because
// the modeled components overran the measured wall) must itself stay
// under tol — a larger residual means some state is double-counted and
// the energy integral is silently wrong.
func EnergyIdentity(worker int, wall, busy, search, dry, halt, residual, tol float64) []Violation {
	var vs []Violation
	if gap := math.Abs(busy + search + dry + halt - residual - wall); gap > tol {
		vs = append(vs, Violation{
			Invariant: "energy-identity",
			Detail: fmt.Sprintf("worker %d: busy %.6g + search %.6g + dry %.6g + halt %.6g - residual %.6g deviates from wall %.6g by %.3g s",
				worker, busy, search, dry, halt, residual, wall, gap),
		})
	}
	if residual > tol {
		vs = append(vs, Violation{
			Invariant: "energy-residual",
			Detail: fmt.Sprintf("worker %d: energy accounting clipped %.3g s (states overrun wall %.6g s — double counting?)",
				worker, residual, wall),
		})
	}
	return vs
}

// SpanIdentity verifies one served job's time account: the queue,
// batch-wait, execute and barrier spans must sum to the job's end-to-end
// time to within tol seconds — a gap means a stretch of the request's
// life belongs to no span, or to two.
func SpanIdentity(job uint64, queue, batch, exec, barrier, e2e, tol float64) []Violation {
	if gap := math.Abs(queue + batch + exec + barrier - e2e); gap > tol {
		return []Violation{{
			Invariant: "span-identity",
			Detail: fmt.Sprintf("job %d: queue %.6g + batch %.6g + exec %.6g + barrier %.6g deviates from e2e %.6g by %.3g s",
				job, queue, batch, exec, barrier, e2e, gap),
		}}
	}
	return nil
}

// PlanFeasible verifies a batch plan's assignment against the paper's
// constraints for an m-core, r-level machine: structural consistency
// (every core in exactly one c-group, groups in descending frequency
// order — cgroup.Validate), and, when the assignment carries the
// k-tuple that produced it, tuple monotonicity (a_i ≤ a_j for i < j).
func PlanFeasible(asn *cgroup.Assignment, m, r int) []Violation {
	if asn == nil {
		return []Violation{{Invariant: "plan-feasible", Detail: "batch plan has no assignment"}}
	}
	var vs []Violation
	if err := asn.Validate(m, r); err != nil {
		vs = append(vs, Violation{Invariant: "plan-feasible", Detail: err.Error()})
	}
	for i := 1; i < len(asn.Tuple); i++ {
		if asn.Tuple[i] < asn.Tuple[i-1] {
			vs = append(vs, Violation{
				Invariant: "plan-feasible",
				Detail:    fmt.Sprintf("tuple %v not monotone at %d (heavier class on slower cores)", asn.Tuple, i),
			})
			break
		}
	}
	return vs
}
