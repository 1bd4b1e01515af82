package policy

import (
	"time"

	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/profile"
)

// EEWA is the paper's Energy-Efficient Workload-Aware scheduler:
//
//   - batch 0 runs like classic work stealing with every core at F0 and
//     its duration becomes the ideal iteration time T;
//   - at every later batch boundary the workload-aware frequency
//     adjuster (internal/core) takes the profiled task classes, builds
//     the CC table, runs the Algorithm 1 backtracking search, and
//     converts the k-tuple into c-groups (contiguous core ranges, which
//     aligns them with the machine's voltage-plane packages) plus a
//     class→c-group allocation;
//   - within a batch the preference-based task-stealing scheduler
//     balances residual imbalance (rob-the-weaker-first, Fig. 5);
//   - if the first batch classifies the application as memory-bound
//     (§IV-D), EEWA permanently falls back to classic stealing at F0.
type EEWA struct {
	// SearchFn overrides the tuple-search algorithm (Algorithm 1 by
	// default); the ablation benches swap in ExhaustiveSearch /
	// GreedySearch.
	SearchFn core.SearchFunc
	// DivisibleCC selects the paper's divisible-load CC formula
	// instead of the granularity-aware default (ablation knob).
	DivisibleCC bool
	// MemAware enables the paper's future-work extension: instead of
	// permanently falling back to classic stealing for memory-bound
	// applications, EEWA spends one calibration batch at a lower
	// uniform frequency, fits each class's frequency response
	// t = a + b·(F0/Fj) (internal/memmodel), and adjusts from the fitted
	// classes, whose MemFrac the CC table honours.
	MemAware bool
	// IgnoreMemoryBound disables the §IV-D detection entirely,
	// applying the CPU-bound CC model regardless — the negative
	// control for the memory-bound experiments (it overruns T).
	IgnoreMemoryBound bool
	// Offline, when set, supplies a previously collected workload
	// profile (paper §IV-D last paragraph): the adjuster configures
	// frequencies before the *first* batch instead of burning an
	// all-fast warmup iteration. Later batches re-profile online as
	// usual.
	Offline *profile.Snapshot

	adj         *core.Adjuster
	memoryBound bool
	lowest      int
}

// NewEEWA returns the EEWA policy with Algorithm 1 as the search.
func NewEEWA() *EEWA { return &EEWA{} }

// Name implements Policy.
func (*EEWA) Name() string { return "EEWA" }

// BeginBatch implements Policy.
func (e *EEWA) BeginBatch(bi int, prof *profile.Profiler, env *Env) Plan {
	e.lowest = env.Cfg.Freqs.Slowest()
	if e.adj == nil {
		adj, err := core.NewAdjuster(env.Cfg.Freqs, env.Cfg.Cores)
		if err != nil {
			panic("policy: " + err.Error()) // env.Cfg was validated by the engine
		}
		adj.DivisibleCC = e.DivisibleCC
		if e.SearchFn != nil {
			adj.Search = e.SearchFn
		}
		e.adj = adj
	}

	if bi == 0 {
		if e.Offline != nil && e.Offline.Validate(env.Cfg.Freqs) == nil {
			// Offline profile available: configure immediately.
			if p, ok := e.adjust(e.Offline.Classes, e.Offline.T, env, 0); ok {
				return p
			}
		}
		// No workload information yet: all cores at the highest
		// frequency; the batch duration defines T.
		return e.classic()
	}
	if !e.IgnoreMemoryBound && (e.memoryBound || prof.MemoryBound()) {
		e.memoryBound = true
		if !e.MemAware {
			// §IV-D: the CC model does not hold for memory-bound
			// tasks; use traditional work stealing for the rest of
			// the run.
			return e.classic()
		}
		// Fit each class's frequency response; the fitted classes carry
		// their measured MemFrac into the same adjuster the CPU-bound
		// path uses. A class still sampled at one level only needs one
		// calibration batch first (with no usable T the adjuster below
		// falls back instead).
		start := time.Now()
		classes, fitted := memmodel.FitAll(prof, prof.Classes(), env.Cfg.Freqs)
		if !fitted && env.IdealTime > 0 {
			p := calibration(env.Cfg)
			p.Overhead, p.HostTime, p.Adjusted = env.AdjusterCharge, time.Since(start), true
			return p
		}
		p, _ := e.adjust(classes, env.IdealTime, env, time.Since(start))
		return p
	}

	// With an offline profile, its measured ideal time remains the
	// performance target for the whole run: batch 0 already runs
	// downscaled, so its duration would understate T.
	T := env.IdealTime
	if e.Offline != nil && e.Offline.Validate(env.Cfg.Freqs) == nil {
		T = e.Offline.T
	}
	p, _ := e.adjust(prof.Classes(), T, env, 0)
	return p
}

// adjust runs the adjuster on classes and T and wraps its decision in a
// plan: the assignment when a tuple fit (ok), classic stealing at F0
// otherwise, with the adjuster's cost charged either way. HostTime adds
// prep, the host time already spent deriving classes.
func (e *EEWA) adjust(classes []profile.Class, T float64, env *Env, prep time.Duration) (Plan, bool) {
	before, infeasible := e.adj.HostTime, e.adj.Infeasible
	asn, ok := e.adj.Adjust(classes, T)
	p := e.classic()
	if ok {
		p = Plan{Assignment: asn, SearchSteps: e.adj.LastSteps}
	}
	p.Overhead, p.HostTime, p.Adjusted = env.AdjusterCharge, prep+e.adj.HostTime-before, true
	p.CacheHit = e.adj.LastCacheHit
	p.Infeasible = e.adj.Infeasible > infeasible
	return p, ok
}

// classic is the all-fast fallback plan: every core at F0, classic
// random stealing.
func (e *EEWA) classic() Plan {
	return Plan{
		Assignment:  e.adj.AllFast(),
		RandomSteal: true,
		ScatterAll:  true,
	}
}

// calibration is the plan for a memory-bound batch whose classes lack a
// second frequency sample: every core at the middle of the ladder — far
// enough from F0 that the two samples separate a class's (a, b), not so
// slow that the batch pays a full F0/F(r−1) stretch — under classic
// stealing, so every class spreads over it.
func calibration(cfg machine.Config) Plan {
	levels := make([]int, cfg.Cores)
	for i := range levels {
		levels[i] = len(cfg.Freqs) / 2
	}
	asn, err := cgroup.FromLevels(levels, len(cfg.Freqs))
	if err != nil {
		panic("policy: " + err.Error()) // in range by construction; env.Cfg was validated
	}
	return Plan{Assignment: asn, RandomSteal: true, ScatterAll: true}
}

// OutOfWork implements Policy: a core that has exhausted every pool
// clocks down to the lowest frequency and spins there until the
// barrier. The paper's EEWA leaves residual idle handling unspecified;
// adopting Cilk-D's down-clock for the (small) windows the frequency
// adjuster could not eliminate is strictly consistent with EEWA's goal
// and guarantees EEWA never trails Cilk-D on a workload the adjuster
// cannot improve (e.g. fully-utilized machines, the Fig. 9 4-core
// regime).
func (e *EEWA) OutOfWork(int) OutOfWorkAction {
	return OutOfWorkAction{State: machine.Spinning, FreqLevel: e.lowest}
}

var _ Policy = (*EEWA)(nil)
