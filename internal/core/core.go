// Package core implements the paper's primary contribution: the
// workload-aware frequency adjuster (§III-A). It glues the online
// profile (task classes), the CC table (Table I), the Algorithm 1
// backtracking search and the c-group construction into one decision
// procedure:
//
//	given the task classes of the last iteration and the ideal
//	iteration time T, choose a frequency level for every core and a
//	c-group for every task class such that the next iteration still
//	finishes in ≈T while drawing minimal power.
//
// Both runtimes share it: the discrete-event simulator
// (internal/sched's EEWA policy) and the live goroutine runtime
// (internal/rt). The zero-configuration entry point is NewAdjuster;
// knobs exist for the ablation studies (paper-exact divisible CC
// formula, alternative tuple searches).
//
// An Adjuster decides once per batch, so it owns one CC table, one
// tuple and one assignment and rebuilds them in place: a warm adjuster
// decides without allocating. The contract that buys this: what Adjust
// returns is valid until the adjuster's next Adjust. A caller that
// keeps a decision across the next one copies what it needs. On a fallback Adjust
// returns no assignment: the caller plans its own (EEWA's all-F0
// classic stealing).
package core

import (
	"fmt"
	"time"

	"repro/internal/cctable"
	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/profile"
)

// SearchFunc selects a k-tuple from a CC table for an m-core machine.
// (*cctable.Table).SearchTuple — the paper's Algorithm 1 — is the
// default.
type SearchFunc func(t *cctable.Table, m int) ([]int, bool)

// Adjuster is the workload-aware frequency adjuster.
type Adjuster struct {
	ladder machine.FreqLadder
	cores  int

	// Search is the tuple-search algorithm (Algorithm 1 by default).
	Search SearchFunc
	// DivisibleCC selects the paper's divisible-load CC formula
	// instead of the granularity-aware default (see
	// cctable.Table.RebuildGranular).
	DivisibleCC bool

	// Infeasible counts adjustments where not even the all-F0 row fit
	// within the core budget (the adjuster then keeps every core
	// fast).
	Infeasible int
	// LastSteps is the Select-attempt count of the most recent Adjust
	// (0 for search functions that do not report it, 0 when the plan
	// cache served the result without searching, and 0 when Adjust
	// returned before searching), surfaced as the adjuster's
	// backtracking-depth metric.
	LastSteps int
	// Cache memoizes tuple-search results keyed by the CC table's
	// fingerprint (class set + weights + T + core budget), so batches
	// whose profile did not change skip the backtracking search
	// entirely. NewAdjuster installs one; set to nil to disable.
	// Overriding Search bypasses it (the ablation searches measure
	// their own cost).
	Cache *cctable.Cache
	// LastCacheHit reports whether the most recent adjustment was
	// served from Cache without running the search.
	LastCacheHit bool
	// HostTime accumulates the measured wall time spent deciding —
	// the quantity Table III reports.
	HostTime time.Duration

	tab cctable.Table     // Adjust's table, rebuilt in place
	asn cgroup.Assignment // the decision, rebuilt in place
}

// NewAdjuster builds an adjuster for an m-core machine with the given
// frequency ladder.
func NewAdjuster(ladder machine.FreqLadder, cores int) (*Adjuster, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("core: need at least one core, got %d", cores)
	}
	a := &Adjuster{
		ladder: ladder,
		cores:  cores,
		Cache:  cctable.NewCache(0),
	}
	// The default search consults the plan cache; a profile fingerprint
	// already searched reuses its tuple and reports LastSearchSteps = 0.
	a.Search = func(t *cctable.Table, m int) ([]int, bool) {
		if a.Cache == nil {
			return t.SearchTuple(m)
		}
		tuple, ok, hit := a.Cache.SearchTuple(t, m)
		a.LastCacheHit = hit
		return tuple, ok
	}
	return a, nil
}

// Adjust decides the frequency configuration for the next iteration
// from the previous iteration's task classes (descending average
// workload, as profile.Classes returns them) and the ideal iteration
// time T (seconds). It returns nil and false when the adjuster falls
// back — because the classes were empty, T was unusable, or no tuple
// fit the core budget — and the caller keeps every core fast.
func (a *Adjuster) Adjust(classes []profile.Class, T float64) (*cgroup.Assignment, bool) {
	a.LastCacheHit, a.LastSteps = false, 0
	if len(classes) == 0 || T <= 0 {
		return nil, false
	}
	start := time.Now()
	defer func() { a.HostTime += time.Since(start) }()

	var err error
	if a.DivisibleCC {
		err = a.tab.Rebuild(classes, a.ladder, T)
	} else {
		err = a.tab.RebuildGranular(classes, a.ladder, T, a.cores)
	}
	if err != nil {
		return nil, false
	}
	tuple, ok := a.Search(&a.tab, a.cores)
	a.LastSteps = a.tab.LastSearchSteps
	if !ok || a.asn.Rebuild(tuple, &a.tab, a.cores) != nil {
		a.Infeasible++
		return nil, false
	}
	return &a.asn, true
}
