package policy

import (
	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/profile"
)

// allFast returns the all-F0 assignment for m cores kept in *asn,
// building it on first use: the baselines plan the same assignment
// every batch, and nothing writes it. Like EEWA, a policy value that
// keeps one serves one engine at a time.
func allFast(asn **cgroup.Assignment, m int) *cgroup.Assignment {
	if *asn == nil || len((*asn).CoreGroup) != m {
		*asn = cgroup.AllFast(m, nil)
	}
	return *asn
}

// --- Cilk -------------------------------------------------------------

// Cilk is classic random work stealing: every core at F0 for the whole
// run; a core with nothing to steal spins at full frequency until the
// barrier — the energy waste of Fig. 1(a).
type Cilk struct {
	asn *cgroup.Assignment // see allFast
}

// NewCilk returns the Cilk baseline policy.
func NewCilk() *Cilk { return &Cilk{} }

// Name implements Policy.
func (*Cilk) Name() string { return "Cilk" }

// BeginBatch implements Policy: all cores fast, scatter placement,
// random stealing, no overhead.
func (p *Cilk) BeginBatch(_ int, _ *profile.Profiler, env *Env) Plan {
	return Plan{
		Assignment:  allFast(&p.asn, env.Cfg.Cores),
		RandomSteal: true,
		ScatterAll:  true,
	}
}

// OutOfWork implements Policy: spin at the current (full) frequency.
func (*Cilk) OutOfWork(int) OutOfWorkAction {
	return OutOfWorkAction{State: machine.Spinning, FreqLevel: -1}
}

var _ Policy = (*Cilk)(nil)

// --- Cilk-D -----------------------------------------------------------

// CilkD is the paper's DVFS strawman: identical to Cilk, except that a
// core that finds no task in any pool clocks itself down to the lowest
// frequency for the rest of the batch (it keeps polling — "scaled down
// to run at the lowest frequency", §IV). On the Opteron's shared
// voltage planes this saves only the frequency-linear part of dynamic
// power while any package peer still runs fast, which is why the paper
// measures just 6.7–12.8 % savings for it.
type CilkD struct {
	lowest int
	asn    *cgroup.Assignment // see allFast
}

// NewCilkD returns the Cilk-D baseline for a machine with ladder length
// r (the lowest level is r-1).
func NewCilkD(r int) *CilkD { return &CilkD{lowest: r - 1} }

// Name implements Policy.
func (*CilkD) Name() string { return "Cilk-D" }

// BeginBatch implements Policy: like Cilk — the engine resets every
// core to F0 when applying the assignment, which models the cores
// ramping back up for the new batch.
func (c *CilkD) BeginBatch(_ int, _ *profile.Profiler, env *Env) Plan {
	return Plan{
		Assignment:  allFast(&c.asn, env.Cfg.Cores),
		RandomSteal: true,
		ScatterAll:  true,
	}
}

// OutOfWork implements Policy: drop to the lowest frequency, keep
// spinning.
func (c *CilkD) OutOfWork(int) OutOfWorkAction {
	return OutOfWorkAction{State: machine.Spinning, FreqLevel: c.lowest}
}

var _ Policy = (*CilkD)(nil)

// --- Cilk on a fixed asymmetric machine (Fig. 7) -----------------------

// CilkFixed is random work stealing on a machine whose per-core
// frequency levels are frozen (the Fig. 7 scenario: "frequencies of
// cores are configured by EEWA", then Cilk runs obliviously on the
// resulting asymmetric machine). Random stealing regularly lands heavy
// tasks on slow cores, which is what stretches its makespan to
// 1.17–2.92× EEWA's in the paper.
type CilkFixed struct {
	asn *cgroup.Assignment
}

// NewCilkFixed builds the policy from per-core frequency levels.
func NewCilkFixed(levels []int, r int) (*CilkFixed, error) {
	asn, err := cgroup.FromLevels(levels, r)
	if err != nil {
		return nil, err
	}
	return &CilkFixed{asn: asn}, nil
}

// Name implements Policy.
func (*CilkFixed) Name() string { return "Cilk" }

// BeginBatch implements Policy.
func (p *CilkFixed) BeginBatch(_ int, _ *profile.Profiler, _ *Env) Plan {
	return Plan{
		Assignment:  p.asn,
		RandomSteal: true,
		ScatterAll:  true,
	}
}

// OutOfWork implements Policy: spin at the frozen frequency.
func (*CilkFixed) OutOfWork(int) OutOfWorkAction {
	return OutOfWorkAction{State: machine.Spinning, FreqLevel: -1}
}

var _ Policy = (*CilkFixed)(nil)
