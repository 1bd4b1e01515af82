package policy

import (
	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/profile"
)

// Cilk is classic random work stealing: tasks scatter round-robin, an
// out-of-work core probes every other core's pool in random order, and
// no frequency is re-tuned between batches. The paper's three random-
// stealing baselines differ only in their frequencies:
//
//   - Cilk (NewCilk): every core at F0; a dry core spins at full
//     frequency until the barrier — the energy waste of Fig. 1(a);
//   - Cilk-D (NewCilkD), the DVFS strawman: a core that finds no task
//     in any pool drops to the lowest frequency for the rest of the
//     batch and keeps polling (§IV). On the Opteron's shared voltage
//     planes this saves only the frequency-linear part of dynamic power
//     while a package peer still runs fast: the paper measures just
//     6.7–12.8 % savings;
//   - Fig. 7's Cilk (NewCilkFixed): per-core levels frozen to EEWA's
//     configuration. Random stealing regularly lands heavy tasks on
//     slow cores, stretching its makespan to 1.17–2.92× EEWA's.
//
// EEWA plans its all-F0 and calibration batches through Cilk values. A
// Cilk keeps the assignment it plans, so like EEWA it serves one engine.
type Cilk struct {
	name   string
	levels []int // per-core frequency levels; nil: every core at F0
	idle   int   // the level a dry core drops to; -1 keeps its own
	asn    *cgroup.Assignment
}

// NewCilk returns the Cilk baseline policy.
func NewCilk() *Cilk { return &Cilk{name: "Cilk", idle: -1} }

// NewCilkD returns the Cilk-D baseline for a machine with ladder length
// r (the lowest level is r-1).
func NewCilkD(r int) *Cilk { return &Cilk{name: "Cilk-D", idle: r - 1} }

// NewCilkFixed returns Cilk on a machine frozen at the given per-core
// frequency levels (r = ladder length).
func NewCilkFixed(levels []int, r int) (*Cilk, error) {
	asn, err := cgroup.FromLevels(levels, r)
	if err != nil {
		return nil, err
	}
	return &Cilk{name: "Cilk", levels: levels, idle: -1, asn: asn}, nil
}

// Name implements Policy.
func (p *Cilk) Name() string { return p.name }

// BeginBatch implements Policy: the policy's levels (applying them
// resets a down-clocked core for the new batch), scatter placement,
// random stealing, no overhead.
func (p *Cilk) BeginBatch(_ int, _ *profile.Profiler, env *Env) Plan {
	if p.levels == nil && (p.asn == nil || len(p.asn.CoreGroup) != env.Cfg.Cores) {
		asn, err := cgroup.FromLevels(make([]int, env.Cfg.Cores), len(env.Cfg.Freqs))
		if err != nil {
			panic("policy: " + err.Error()) // env.Cfg was validated by the engine
		}
		p.asn = asn
	}
	return Plan{Assignment: p.asn, RandomSteal: true, ScatterAll: true}
}

// OutOfWork implements Policy: keep spinning, at the idle level if any.
func (p *Cilk) OutOfWork(int) OutOfWorkAction {
	return OutOfWorkAction{State: machine.Spinning, FreqLevel: p.idle}
}

var _ Policy = (*Cilk)(nil)
