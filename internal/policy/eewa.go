package policy

import (
	"time"

	"repro/internal/cctable"
	"repro/internal/core"
	"repro/internal/machine"
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
	// t = a + b·(F0/Fj) (internal/memmodel), and schedules from the
	// model-corrected CC table.
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

// Adjuster exposes the underlying frequency adjuster (nil until the
// first planned batch) for tests and the ktuple CLI.
func (e *EEWA) Adjuster() *core.Adjuster { return e.adj }

// LastTable returns the most recent CC table, if any.
func (e *EEWA) LastTable() *cctable.Table {
	if e.adj == nil {
		return nil
	}
	return e.adj.LastTable
}

// Infeasible reports how many batches fell back to all-fast because no
// tuple fit.
func (e *EEWA) Infeasible() int {
	if e.adj == nil {
		return 0
	}
	return e.adj.Infeasible
}

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
			hostBefore := e.adj.HostTime
			asn, ok := e.adj.Adjust(e.Offline.Classes, e.Offline.T)
			host := e.adj.HostTime - hostBefore
			if ok {
				return Plan{Assignment: asn, Overhead: env.AdjusterCharge, HostTime: host, SearchSteps: e.adj.LastSteps, Adjusted: true, CacheHit: e.adj.LastCacheHit}
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
		hostBefore := e.adj.HostTime
		asn, dec := e.adj.AdjustMemAware(prof, env.IdealTime)
		host := e.adj.HostTime - hostBefore
		switch dec {
		case core.MemCalibrate:
			// One uniform slow batch, classic stealing, to sample the
			// classes at a second frequency.
			return Plan{
				Assignment:  asn,
				Overhead:    env.AdjusterCharge,
				HostTime:    host,
				Adjusted:    true,
				RandomSteal: true,
				ScatterAll:  true,
			}
		case core.MemOK:
			return Plan{Assignment: asn, Overhead: env.AdjusterCharge, HostTime: host, SearchSteps: e.adj.LastSteps, Adjusted: true, CacheHit: e.adj.LastCacheHit}
		default:
			return e.classicAfterAdjust(env, host)
		}
	}

	// With an offline profile, its measured ideal time remains the
	// performance target for the whole run: batch 0 already runs
	// downscaled, so its duration would understate T.
	T := env.IdealTime
	if e.Offline != nil && e.Offline.Validate(env.Cfg.Freqs) == nil {
		T = e.Offline.T
	}
	hostBefore := e.adj.HostTime
	asn, ok := e.adj.Adjust(prof.Classes(), T)
	host := e.adj.HostTime - hostBefore
	if !ok {
		return e.classicAfterAdjust(env, host)
	}
	return Plan{
		Assignment:  asn,
		Overhead:    env.AdjusterCharge,
		HostTime:    host,
		SearchSteps: e.adj.LastSteps,
		Adjusted:    true,
		CacheHit:    e.adj.LastCacheHit,
	}
}

// classic is the all-fast fallback plan: every core at F0, classic
// random stealing. Built only on the branches that return it — the
// assignment is five allocations a planned batch has no use for.
func (e *EEWA) classic() Plan {
	return Plan{
		Assignment:  e.adj.AllFast(),
		RandomSteal: true,
		ScatterAll:  true,
	}
}

// classicAfterAdjust is the fallback for a batch whose adjuster ran and
// found no tuple: classic stealing, with the adjuster's cost charged.
func (e *EEWA) classicAfterAdjust(env *Env, host time.Duration) Plan {
	p := e.classic()
	p.Overhead = env.AdjusterCharge
	p.HostTime = host
	p.Adjusted = true
	p.CacheHit = e.adj.LastCacheHit
	return p
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
