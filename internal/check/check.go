// Package check holds the runtime invariants of the live EEWA engines:
// cheap algebraic checks evaluated when invariant checking is on
// (rt.Config.Invariants / serve.Config.Invariants, or every binary
// built with -tags eewa_check), each failure reported through the
// eewa_rt_invariant_violations_total metric and the engine's
// Violations list.
//
//   - internal/rt evaluates TaskConservation, EnergyIdentity and
//     PlanFeasible at every batch boundary;
//   - internal/serve evaluates SpanIdentity on every served job.
//
// Tuple feasibility (monotone, inside the ladder, Σ CC[a_i][i] ≤ m) is
// not re-checked here: cgroup.Assignment.Rebuild enforces
// cctable.Table.ValidTuple on every adjuster decision, and an invalid
// tuple falls back to all-fast, counted on the engines'
// eewa_sim_adjuster_infeasible_total and eewa_rt_adjuster_infeasible_total.
//
// The package's tests also hold the concurrency harness for the
// Chase–Lev deque the runtime steals from: a deterministic schedule
// explorer over a step model of the algorithm, with seeded mutants
// that prove it has teeth (explore_harness_test.go, model_test.go),
// and a randomized stress driver over the real internal/deque
// implementations (stress_harness_test.go). DESIGN.md §8 has the
// memory-model argument the explorer encodes and its bounds.
package check

// Violation is one invariant failure.
type Violation struct {
	// Invariant names the failed property.
	Invariant string
	// Detail is a human-readable description of the failure.
	Detail string
}

func (v Violation) String() string {
	return v.Invariant + ": " + v.Detail
}
