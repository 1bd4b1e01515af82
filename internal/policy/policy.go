// Package policy is the engine-agnostic scheduling core: everything
// the paper contributes as *decisions*, with none of the machinery that
// executes them. Both execution substrates drive it —
//
//   - internal/sched, the deterministic discrete-event simulator, and
//   - internal/rt, the live goroutine runtime with Chase–Lev deques and
//     duty-cycle DVFS emulation —
//
// so the two engines cannot diverge on what the scheduler decides, only
// on how fast the decisions run.
//
// The decision surface is:
//
//   - BeginBatch — per-batch planning: profile snapshot → CC table →
//     Algorithm 1 backtracking → frequency assignment and class→c-group
//     allocation, wrapped in a Plan;
//   - IndexedPlacer — initial task placement (class→c-group mapping
//     with unknown classes to the fastest group, round-robin scatter
//     when no class information exists);
//   - StealOrder — the victim probe order of an out-of-work core
//     (classic random stealing, or the paper's rob-the-weaker-first
//     preference lists, Fig. 5);
//   - OutOfWork — what a core does once every reachable pool is empty
//     for the remainder of the batch.
//
// Three types implement it, one per discipline the paper compares:
// Cilk (random stealing; Cilk-D and Fig. 7's frozen control differ from
// Cilk only in frequencies), WATS and EEWA. Each of the paper's four
// policies has one canonical lowercase identifier (IDs) accepted by every
// CLI and the facade, and one display name (Policy.Name) for tables. New also builds EEWA's variants by name — the tuple-search
// and CC-formula ablations and the §IV-D memory-bound handling — so a
// variant is a value of every -policy flag and of the sweep grid's
// policy axis.
package policy

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cctable"
	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xrand"
)

// Canonical policy identifiers. These are the -policy values every CLI
// accepts and the strings the facade and the live runtime use; display
// names (for tables) come from each policy's Name method.
const (
	// IDCilk is classic random work stealing at full frequency.
	IDCilk = "cilk"
	// IDCilkD is Cilk with idle cores down-clocked to the lowest level.
	IDCilkD = "cilk-d"
	// IDWATS is workload-aware stealing on a fixed asymmetric
	// configuration (the paper's [9]).
	IDWATS = "wats"
	// IDEEWA is the paper's full scheduler.
	IDEEWA = "eewa"
)

// EEWA variants: the paper's scheduler with one decision swapped.
const (
	// idEEWAExhaustive searches every monotone tuple for the
	// lowest-power one (the search ablation's optimum).
	idEEWAExhaustive = "eewa-exhaustive"
	// idEEWAGreedy gives each class, heaviest first, the slowest level
	// that fits (the search ablation's heuristic).
	idEEWAGreedy = "eewa-greedy"
	// idEEWADivisible builds the CC table from the paper's
	// divisible-load formula instead of the granularity-aware one.
	idEEWADivisible = "eewa-divisible"
	// idEEWAMemAware is the paper's future work (§IV-D): a memory-bound
	// application gets one calibration batch and is then scheduled from
	// each class's fitted frequency response instead of falling back.
	idEEWAMemAware = "eewa-memaware"
	// idEEWAIgnore skips the §IV-D memory-bound detection and applies
	// the CPU-bound CC model regardless — the negative control.
	idEEWAIgnore = "eewa-ignore"
)

// IDs returns the canonical identifiers of the paper's four policies in
// presentation order. New accepts these and the EEWA variants.
func IDs() []string { return []string{IDCilk, IDCilkD, IDWATS, IDEEWA} }

// names lists every identifier New accepts, for its error.
var names = append(IDs(), idEEWAExhaustive, idEEWAGreedy, idEEWADivisible, idEEWAMemAware, idEEWAIgnore)

// New constructs a policy from its identifier for machine cfg: one of
// IDs or an EEWA variant. WATS freezes DefaultWATSLevels for cfg.
func New(name string, cfg machine.Config) (Policy, error) {
	switch name {
	case IDCilk:
		return NewCilk(), nil
	case IDCilkD:
		return NewCilkD(len(cfg.Freqs)), nil
	case IDWATS:
		return NewWATS(DefaultWATSLevels(cfg.Cores, len(cfg.Freqs)), len(cfg.Freqs))
	case IDEEWA:
		return NewEEWA(), nil
	case idEEWAExhaustive:
		pm := cfg.Power
		return &EEWA{variant: name, search: func(t *cctable.Table, m int) ([]int, bool) { return t.ExhaustiveSearch(m, pm) }}, nil
	case idEEWAGreedy:
		return &EEWA{variant: name, search: (*cctable.Table).GreedySearch}, nil
	case idEEWADivisible:
		return &EEWA{variant: name, divisibleCC: true}, nil
	case idEEWAMemAware:
		return &EEWA{variant: name, memAware: true}, nil
	case idEEWAIgnore:
		return &EEWA{variant: name, ignoreMemoryBound: true}, nil
	default:
		return nil, fmt.Errorf("policy: unknown policy %q (want one of %s)", name, strings.Join(names, ", "))
	}
}

// Env is the read-only context a Policy sees when planning a batch. It
// is engine-neutral: the simulator fills IdealTime with simulated
// seconds, the live runtime with measured wall seconds.
type Env struct {
	// Cfg is the machine configuration (the live runtime substitutes
	// its worker count for Cores).
	Cfg machine.Config
	// IdealTime is T, the duration of the first batch in seconds (0
	// while the first batch has not completed yet).
	IdealTime float64
	// AdjusterCharge is the simulated overhead a planning policy
	// should report in Plan.Overhead. The simulator sets it from its
	// Params; the live runtime leaves it zero (its adjuster cost is
	// real wall time, reported in Plan.HostTime).
	AdjusterCharge float64
}

// Plan is a policy's decision for one batch.
type Plan struct {
	// Assignment carries the frequency configuration (c-groups) and
	// the class→c-group allocation for the batch.
	Assignment *cgroup.Assignment
	// Overhead is simulated seconds charged at the batch boundary for
	// computing this plan (EEWA's adjuster; zero for the baselines and
	// in the live runtime).
	Overhead float64
	// HostTime is the real wall time the policy spent computing the
	// plan on the host (Table III).
	HostTime time.Duration
	// SearchSteps is the number of Select attempts the tuple search
	// performed for this plan (0 when no search ran), also when no
	// tuple fit and the plan fell back to every core at F0 — the
	// backtracking depth surfaced to the metrics layer.
	SearchSteps int
	// IdealTime is the ideal iteration time T, in seconds, the
	// frequency adjuster planned this batch against (0 when no
	// adjustment ran); the engines observe it on
	// eewa_{sim,rt}_plan_ideal_seconds.
	IdealTime float64
	// Adjusted reports that the frequency adjuster ran for this plan
	// (used by the engines' adjuster-invocation metrics; Overhead may
	// legitimately be zero in the live runtime).
	Adjusted bool
	// CacheHit reports that the adjuster served this plan from its
	// memoized tuple-search cache instead of re-running the
	// backtracking search (meaningful only when Adjusted is true; the
	// engines count it on eewa_plan_cache_{hits,misses}_total).
	CacheHit bool
	// Infeasible reports that the adjuster ran its tuple search and not
	// even the all-F0 row fit the core budget, so the plan keeps every
	// core fast (one count of core.Adjuster.Infeasible; the engines
	// count it on eewa_{sim,rt}_adjuster_infeasible_total).
	Infeasible bool
	// RandomSteal selects classic Cilk victim selection: each core
	// uses only its own-group pool and probes every other core's
	// own-group pool in random order, ignoring c-group structure.
	RandomSteal bool
	// ScatterAll places tasks round-robin across all cores (into each
	// core's own-group pool) instead of by class allocation — the
	// placement used when no class information exists (first batch,
	// the baselines, and EEWA's memory-bound fallback).
	ScatterAll bool
}

// OutOfWorkAction is what a core does when it has probed every pool it
// may take from and found nothing: it enters State, optionally
// re-clocking to FreqLevel (-1 keeps the current level). No work can
// arrive until the next batch, so the action holds until the barrier.
type OutOfWorkAction struct {
	State     machine.CoreState
	FreqLevel int
}

// Policy is a scheduling discipline either engine can execute.
type Policy interface {
	// Name identifies the policy in results and tables (display name;
	// the canonical CLI identifier is one of IDs).
	Name() string
	// BeginBatch plans batch bi. prof holds the classes profiled from
	// batch bi-1 (empty for bi = 0); the engine resets the profiler
	// after this call.
	BeginBatch(bi int, prof *profile.Profiler, env *Env) Plan
	// OutOfWork is consulted when a core exhausts every reachable
	// pool for the remainder of a batch.
	OutOfWork(core int) OutOfWorkAction
}

// --- Placement --------------------------------------------------------

// IndexedPlacer maps one batch's tasks, in submission order, to the
// (core, c-group pool) slots the plan prescribes, over compact per-batch
// class ids: the group and placement-core list of every class are
// resolved once per batch, by Reset, and Place is pure array indexing —
// no map operation per task. An engine keeps one and Resets it each
// batch; Place is not concurrency-safe (placement happens at the
// barrier in both engines).
type IndexedPlacer struct {
	scatter   bool
	cores     int
	seq       int
	coreGroup []int
	group     []int   // per class id: its c-group
	members   [][]int // per class id: its placement cores
	next      []int   // per class id: round-robin cursor
}

// Reset readies the placer for a batch under plan on an m-core engine,
// whose class id i is named classes[i], reusing its per-class arrays.
// It reads plan.Assignment's slices until the next Reset.
func (pl *IndexedPlacer) Reset(plan *Plan, cores int, classes []string) {
	pl.scatter, pl.cores, pl.seq = plan.ScatterAll, cores, 0
	pl.coreGroup = plan.Assignment.CoreGroup
	if pl.scatter {
		return
	}
	n := len(classes)
	pl.group = slices.Grow(pl.group[:0], n)[:n]
	pl.members = slices.Grow(pl.members[:0], n)[:n]
	pl.next = slices.Grow(pl.next[:0], n)[:n]
	clear(pl.next)
	for id, name := range classes {
		pl.group[id] = plan.Assignment.GroupOfClass(name)
		pl.members[id] = plan.Assignment.PlacementCores(name)
	}
}

// Place returns the core and c-group pool the next task of class id
// cid goes to. Scatter plans round-robin over all cores; class plans
// round-robin each class over its reserved placement cores (its
// CC-count slice of its c-group), so same-group classes start on
// disjoint pools. Unknown classes go to the fastest group, the paper's
// rule for tasks "with no existing task class".
func (pl *IndexedPlacer) Place(cid int32) (core, group int) {
	if pl.scatter {
		c := pl.seq % pl.cores
		pl.seq++
		return c, pl.coreGroup[c]
	}
	m := pl.members[cid]
	c := m[pl.next[cid]%len(m)]
	pl.next[cid]++
	return c, pl.group[cid]
}

// --- Steal order ------------------------------------------------------

// StealOrder is the victim order of one plan epoch: which pools an
// out-of-work core probes, in the plan's preference order. An engine
// keeps one and Resets it at each batch boundary; between Resets it is
// read-only, and cores walk it through their own VictimWalker (Walker),
// so all workers may share it concurrently.
type StealOrder struct {
	random    bool
	u         int
	coreGroup []int
}

// Reset points the steal order at plan. It reads
// plan.Assignment.CoreGroup until the next Reset and allocates nothing.
func (s *StealOrder) Reset(plan *Plan) {
	s.random, s.u = plan.RandomSteal, plan.Assignment.U()
	s.coreGroup = plan.Assignment.CoreGroup
}

// VictimWalker is a per-core victim iterator bound to a StealOrder. It
// walks with a permutation buffer it is given, so walking the victim
// order allocates nothing — the engines keep one walker per core over
// their one StealOrder (the plan, and with it the steal order, can only
// change at a batch boundary, by Reset). A walker must only be used by
// its core's worker; walkers with distinct buffers over the same
// StealOrder are safe concurrently, and walkers that share one buffer
// (the single-threaded simulator's) must not walk at the same time.
type VictimWalker struct {
	so   *StealOrder
	self int
	perm []int
}

// Walker returns a victim walker for core self over this steal order,
// walking in perm, which must have one entry per core.
func (s *StealOrder) Walker(self int, perm []int) VictimWalker {
	return VictimWalker{so: s, self: self, perm: perm}
}

// ForEachVictim calls probe(victim, group) for every remote pool the
// walker's core may steal from, in the policy's order, stopping early
// when probe returns true (and reporting whether it did). The core's
// local pool (itself, its own group) is excluded — owners pop it
// directly.
//
// Random plans probe every other core's own-group pool in one random
// permutation. Preference plans walk the rob-the-weaker-first group
// list of the core's c-group (Fig. 5) and probe every core's pool for
// that group in a fresh random permutation per group — exactly the
// paper's §III-B search. xrand.PermInto draws exactly as Perm does, so
// RNG consumption is byte-identical to the historical engines and
// simulations stay reproducible.
func (w *VictimWalker) ForEachVictim(rng *xrand.RNG, probe func(victim, group int) bool) bool {
	s := w.so
	if s.random {
		rng.PermInto(w.perm)
		for _, v := range w.perm {
			if v == w.self {
				continue
			}
			if probe(v, s.coreGroup[v]) {
				return true
			}
		}
		return false
	}
	myG := s.coreGroup[w.self]
	for k := 0; k < s.u; k++ {
		g := cgroup.Preference(myG, k, s.u)
		rng.PermInto(w.perm)
		for _, v := range w.perm {
			if v == w.self && g == myG {
				continue // the owner's local pool, already popped
			}
			if probe(v, g) {
				return true
			}
		}
	}
	return false
}

// SkipVictims advances rng exactly as a ForEachVictim walk whose every
// probe fails, without probing, and returns the number of probes that
// walk makes. When missed is non-nil it receives the walk's probes per
// victim group. An engine that knows every pool is empty calls it
// instead of walking: the draws, and so every later victim order, stay
// the same.
func (w *VictimWalker) SkipVictims(rng *xrand.RNG, missed func(group, probes int)) int {
	s, n := w.so, len(w.perm)
	if s.random {
		rng.SkipPerm(n)
		if missed != nil {
			for v, g := range s.coreGroup {
				if v != w.self {
					missed(g, 1)
				}
			}
		}
		return n - 1
	}
	myG := s.coreGroup[w.self]
	probes := 0
	for k := 0; k < s.u; k++ {
		g := cgroup.Preference(myG, k, s.u)
		rng.SkipPerm(n)
		p := n
		if g == myG {
			p-- // the owner's local pool
		}
		probes += p
		if missed != nil {
			missed(g, p)
		}
	}
	return probes
}
