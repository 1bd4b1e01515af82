package policy

import (
	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/profile"
)

// WATS is the paper's [9] — Workload-Aware Task Scheduling for
// asymmetric multi-core machines — reconstructed as the Fig. 7
// baseline: the per-core frequency configuration is *fixed* for the
// whole run (EEWA's modal configuration, frozen), task classes are
// profiled online exactly as in EEWA, heavy classes are allocated to
// fast c-groups by computational capacity, and idle cores steal by the
// same rob-the-weaker-first preference lists. What WATS cannot do is
// re-tune frequencies between batches — the delta the paper attributes
// EEWA's remaining edge to.
type WATS struct {
	asn *cgroup.Assignment
	// alloc is asn with the class allocation of the batch being
	// planned, in its own map; loads is allocateByCapacity's per-group
	// scratch. Both are rebuilt every batch, like EEWA's assignment.
	alloc cgroup.Assignment
	loads []float64
}

// NewWATS builds the policy for a machine frozen at the given per-core
// frequency levels (r = ladder length).
func NewWATS(levels []int, r int) (*WATS, error) {
	asn, err := cgroup.FromLevels(levels, r)
	if err != nil {
		return nil, err
	}
	w := &WATS{asn: asn, alloc: *asn, loads: make([]float64, asn.U())}
	w.alloc.ClassGroup = make(map[string]int)
	return w, nil
}

// DefaultWATSLevels is the frozen frequency configuration used when a
// caller asks for WATS without specifying one: roughly a third of the
// cores at F0 and the rest at the slowest level — the steady-state
// shape EEWA converges to on the paper's benchmarks (Fig. 8's 5-fast /
// 11-slow census on the 16-core Opteron).
func DefaultWATSLevels(cores, r int) []int {
	fast := (cores + 2) / 3
	if fast < 1 {
		fast = 1
	}
	levels := make([]int, cores)
	for i := fast; i < cores; i++ {
		levels[i] = r - 1
	}
	return levels
}

// Name implements Policy.
func (*WATS) Name() string { return "WATS" }

// BeginBatch implements Policy. The first batch has no class history,
// so tasks scatter round-robin; later batches allocate classes to
// c-groups proportionally to group capacity, heaviest classes to the
// fastest groups. The returned assignment is valid until the next
// BeginBatch.
func (w *WATS) BeginBatch(bi int, prof *profile.Profiler, env *Env) Plan {
	if bi == 0 || prof.NumClasses() == 0 {
		return Plan{Assignment: w.asn, ScatterAll: true}
	}
	w.allocateByCapacity(prof.Classes(), env.Cfg.Freqs)
	return Plan{Assignment: &w.alloc}
}

// OutOfWork implements Policy: spin at the frozen frequency.
func (*WATS) OutOfWork(int) OutOfWorkAction {
	return OutOfWorkAction{State: machine.Spinning, FreqLevel: -1}
}

var _ Policy = (*WATS)(nil)

// allocateByCapacity maps classes (descending workload) onto c-groups
// (descending frequency) in w.alloc.ClassGroup: each class, heaviest
// first, goes to the group with the lowest projected relative load
// (assigned work divided by computational capacity Σ f_core/F0). Heavy
// classes therefore claim the fast groups while they are still empty,
// and no group ends up overloaded relative to its speed — the
// workload-aware placement the WATS baseline contributes on asymmetric
// machines.
func (w *WATS) allocateByCapacity(classes []profile.Class, ladder machine.FreqLadder) {
	out, loads, groups := w.alloc.ClassGroup, w.loads, w.asn.Groups
	clear(out)
	clear(loads)
	for _, c := range classes {
		best, bestLoad := 0, 0.0
		for gi, g := range groups {
			load := (loads[gi] + c.TotalWork()) / (float64(len(g.Cores)) / ladder.Ratio(g.Level))
			if gi == 0 || load < bestLoad {
				best, bestLoad = gi, load
			}
		}
		out[c.Name] = best
		loads[best] += c.TotalWork()
	}
}
