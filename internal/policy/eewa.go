package policy

import (
	"strings"
	"time"

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
//
// New builds the variants that change one of these decisions
// (eewa-exhaustive, eewa-greedy, eewa-divisible, eewa-memaware,
// eewa-ignore); NewEEWA and New(IDEEWA) build the paper's scheduler.
type EEWA struct {
	// Offline, when set, supplies a previously collected workload
	// profile (paper §IV-D last paragraph): the adjuster configures
	// frequencies before the *first* batch instead of burning an
	// all-fast warmup iteration. Later batches re-profile online as
	// usual and are planned against the profile's T scaled to their
	// share of its work (profile.Snapshot.IdealTimeFor), which is T
	// itself on an iteration that matches the profile.
	Offline *profile.Snapshot

	// The variant New configures (the zero values are the paper's
	// EEWA): its identifier, the tuple search replacing Algorithm 1,
	// the divisible-load CC formula, the memory-bound extension and
	// the memory-bound control.
	variant           string
	search            core.SearchFunc
	divisibleCC       bool
	memAware          bool
	ignoreMemoryBound bool

	adj *core.Adjuster
	// fast is the classic plan: every core at F0, random stealing (the
	// first batch, the §IV-D fallback and every batch the adjuster
	// finds no tuple for). calibrate, built on first use, is the same
	// stealing with every core mid-ladder: a memory-bound batch whose
	// classes lack a second frequency sample runs on it, far enough
	// from F0 that the two samples separate a class's (a, b), not so
	// slow that the batch pays a full F0/F(r−1) stretch.
	fast, calibrate *Cilk
	memoryBound     bool
	lowest          int
}

// NewEEWA returns the paper's EEWA policy, Algorithm 1 as the search.
func NewEEWA() *EEWA { return &EEWA{} }

// Name implements Policy: "EEWA", and for a variant "EEWA" followed by
// its identifier's suffix ("EEWA-greedy").
func (e *EEWA) Name() string { return "EEWA" + strings.TrimPrefix(e.variant, IDEEWA) }

// BeginBatch implements Policy.
func (e *EEWA) BeginBatch(bi int, prof *profile.Profiler, env *Env) Plan {
	e.lowest = env.Cfg.Freqs.Slowest()
	if e.adj == nil {
		adj, err := core.NewAdjuster(env.Cfg.Freqs, env.Cfg.Cores)
		if err != nil {
			panic("policy: " + err.Error()) // env.Cfg was validated by the engine
		}
		adj.DivisibleCC = e.divisibleCC
		if e.search != nil {
			adj.Search = e.search
		}
		e.adj, e.fast = adj, NewCilk()
	}

	if bi == 0 {
		if e.Offline != nil && e.Offline.Validate(env.Cfg.Freqs) == nil {
			// Offline profile available: configure immediately. When
			// no tuple fits, adjust's plan is the F0 one, and it still
			// carries the adjuster's cost, steps and T.
			return e.adjust(e.Offline.Classes, e.Offline.T, env, 0)
		}
		// No workload information yet: all cores at the highest
		// frequency; the batch duration defines T.
		return e.fast.BeginBatch(bi, prof, env)
	}
	if !e.ignoreMemoryBound && (e.memoryBound || prof.MemoryBound()) {
		e.memoryBound = true
		if !e.memAware {
			// §IV-D: the CC model does not hold for memory-bound
			// tasks; use traditional work stealing for the rest of
			// the run.
			return e.fast.BeginBatch(bi, prof, env)
		}
		// Fit each class's frequency response; the fitted classes carry
		// their measured MemFrac into the same adjuster the CPU-bound
		// path uses. A class still sampled at one level only needs one
		// calibration batch first (with no usable T the adjuster below
		// falls back instead).
		start := time.Now()
		classes, fitted := memmodel.FitAll(prof, prof.Classes(), env.Cfg.Freqs)
		if !fitted && env.IdealTime > 0 {
			if e.calibrate == nil {
				mid := make([]int, env.Cfg.Cores)
				for i := range mid {
					mid[i] = len(env.Cfg.Freqs) / 2
				}
				var err error
				if e.calibrate, err = NewCilkFixed(mid, len(env.Cfg.Freqs)); err != nil {
					panic("policy: " + err.Error()) // in range by construction
				}
			}
			p := e.calibrate.BeginBatch(bi, prof, env)
			p.Overhead, p.HostTime, p.Adjusted = env.AdjusterCharge, time.Since(start), true
			return p
		}
		return e.adjust(classes, env.IdealTime, env, time.Since(start))
	}

	// With an offline profile, its measured ideal time remains the
	// performance target for the whole run (batch 0 already runs
	// downscaled, so its duration would understate T), scaled to the
	// batch being planned: a batch holding a tenth of the profiled
	// iteration's work gets a tenth of its T. On an iteration that
	// matches the profile that is Offline.T itself.
	T, classes := env.IdealTime, prof.Classes()
	if e.Offline != nil && e.Offline.Validate(env.Cfg.Freqs) == nil {
		T = e.Offline.IdealTimeFor(classes)
	}
	return e.adjust(classes, T, env, 0)
}

// adjust runs the adjuster on classes and T and wraps its decision in a
// plan: the assignment when a tuple fit, classic stealing at F0
// otherwise (Infeasible), with the adjuster's cost, search steps and T
// reported either way. HostTime adds prep, the host time already spent
// deriving classes.
func (e *EEWA) adjust(classes []profile.Class, T float64, env *Env, prep time.Duration) Plan {
	before, infeasible := e.adj.HostTime, e.adj.Infeasible
	asn, ok := e.adj.Adjust(classes, T)
	p := Plan{Assignment: asn}
	if !ok {
		p = e.fast.BeginBatch(0, nil, env)
	}
	p.Overhead, p.HostTime, p.Adjusted = env.AdjusterCharge, prep+e.adj.HostTime-before, true
	p.SearchSteps, p.IdealTime = e.adj.LastSteps, T
	p.CacheHit = e.adj.LastCacheHit
	p.Infeasible = e.adj.Infeasible > infeasible
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
