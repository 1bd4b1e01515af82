package traffic

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/xrand"
)

// Arrival-process identifiers for Arrival.Kind.
const (
	// ArrivalPoisson is a homogeneous Poisson process at RateJPS.
	ArrivalPoisson = "poisson"
	// ArrivalBursty is a two-state Markov-modulated Poisson process:
	// calm periods at RateJPS, burst periods at RateJPS×BurstFactor,
	// with exponential state holding times.
	ArrivalBursty = "bursty"
	// ArrivalDiurnal is a non-homogeneous Poisson process whose rate
	// follows a multi-period envelope:
	//
	//	rate(t) = RateJPS · max(0, 1 + Σᵢ Ampᵢ·sin(2π·t/Periodᵢ + Phaseᵢ))
	//
	// sampled by thinning. One long period models the diurnal cycle;
	// additional shorter periods model intraday waves.
	ArrivalDiurnal = "diurnal"
)

// Period is one sinusoidal component of a diurnal rate envelope.
type Period struct {
	PeriodS float64 `json:"period_s"`
	// Amp is the relative amplitude (0.5 swings the rate ±50%).
	Amp   float64 `json:"amp"`
	Phase float64 `json:"phase,omitempty"` // radians
}

// Arrival describes a cohort's arrival process.
type Arrival struct {
	Kind string `json:"kind"`
	// RateJPS is the base job arrival rate (jobs per second).
	RateJPS float64 `json:"rate_jps"`
	// Bursty parameters (ArrivalBursty).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	MeanBurstS  float64 `json:"mean_burst_s,omitempty"`
	MeanCalmS   float64 `json:"mean_calm_s,omitempty"`
	// Periods is the diurnal envelope (ArrivalDiurnal).
	Periods []Period `json:"periods,omitempty"`
}

func (a *Arrival) validate() error {
	if a.RateJPS <= 0 {
		return fmt.Errorf("rate_jps must be positive, got %g", a.RateJPS)
	}
	switch a.Kind {
	case ArrivalPoisson:
	case ArrivalBursty:
		if a.BurstFactor <= 1 {
			return fmt.Errorf("bursty needs burst_factor > 1, got %g", a.BurstFactor)
		}
		if a.MeanBurstS <= 0 || a.MeanCalmS <= 0 {
			return fmt.Errorf("bursty needs positive mean_burst_s and mean_calm_s")
		}
	case ArrivalDiurnal:
		if len(a.Periods) == 0 {
			return fmt.Errorf("diurnal needs at least one period")
		}
		for _, p := range a.Periods {
			if p.PeriodS <= 0 {
				return fmt.Errorf("diurnal period must be positive, got %g", p.PeriodS)
			}
			if p.Amp < 0 {
				return fmt.Errorf("diurnal amplitude must be non-negative, got %g", p.Amp)
			}
		}
	default:
		return fmt.Errorf("unknown arrival kind %q (want %s, %s or %s)",
			a.Kind, ArrivalPoisson, ArrivalBursty, ArrivalDiurnal)
	}
	return nil
}

// ClassMix is one task class inside a cohort's job mix.
type ClassMix struct {
	Class  string  `json:"class"`
	Weight float64 `json:"weight"` // relative pick probability
	// Count is the tasks per job of this class (default 1).
	Count     int `json:"count,omitempty"`
	SizeBytes int `json:"size_bytes,omitempty"`
	// MeanWorkS/StddevWorkS parameterize the per-task work hint,
	// sampled with xrand.NormPos so it is always strictly positive.
	// Zero mean means no hint.
	MeanWorkS   float64 `json:"mean_work_s,omitempty"`
	StddevWorkS float64 `json:"stddev_work_s,omitempty"`
}

// Cohort is one tenant's traffic: an arrival process, a class mix and
// a deadline distribution. Each cohort samples from an independent
// stream derived from the spec seed and the tenant name, so cohorts
// can be added, removed or reordered without perturbing each other.
type Cohort struct {
	Tenant  string     `json:"tenant"`
	Arrival Arrival    `json:"arrival"`
	Mix     []ClassMix `json:"mix"`
	// DeadlineMeanS/DeadlineStddevS parameterize per-job deadlines
	// (NormPos-sampled, floored at 1 ms). Zero mean means no deadlines.
	DeadlineMeanS   float64 `json:"deadline_mean_s,omitempty"`
	DeadlineStddevS float64 `json:"deadline_stddev_s,omitempty"`
}

func (c *Cohort) validate() error {
	if c.Tenant == "" {
		return fmt.Errorf("traffic: cohort with empty tenant")
	}
	if err := c.Arrival.validate(); err != nil {
		return fmt.Errorf("traffic: cohort %q: %w", c.Tenant, err)
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("traffic: cohort %q has an empty class mix", c.Tenant)
	}
	total := 0.0
	for _, m := range c.Mix {
		if m.Class == "" {
			return fmt.Errorf("traffic: cohort %q has a mix entry with empty class", c.Tenant)
		}
		if m.Weight <= 0 {
			return fmt.Errorf("traffic: cohort %q class %q needs positive weight", c.Tenant, m.Class)
		}
		if m.Count < 0 || m.SizeBytes < 0 || m.MeanWorkS < 0 || m.StddevWorkS < 0 {
			return fmt.Errorf("traffic: cohort %q class %q has negative parameters", c.Tenant, m.Class)
		}
		total += m.Weight
	}
	if total <= 0 {
		return fmt.Errorf("traffic: cohort %q mix weights sum to %g", c.Tenant, total)
	}
	if c.DeadlineMeanS < 0 || c.DeadlineStddevS < 0 {
		return fmt.Errorf("traffic: cohort %q has negative deadline parameters", c.Tenant)
	}
	return nil
}

// Spec describes a whole trace to generate.
type Spec struct {
	Name      string   `json:"name"`
	DurationS float64  `json:"duration_s"`
	Seed      uint64   `json:"seed"`
	Cohorts   []Cohort `json:"cohorts"`
}

// cohortSeed derives the cohort's independent stream seed from the
// spec seed and the tenant *name* (FNV-1a), not its position — so
// appending, removing or reordering cohorts leaves every other
// cohort's stream bit-identical.
func cohortSeed(seed uint64, tenant string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	return xrand.Split(seed, h)
}

// Generate builds the trace described by spec: every cohort's arrival
// stream is generated from its own xrand.Split-derived seed and the
// streams are merged in offset order (ties broken by tenant, then by
// per-cohort sequence). The result is a pure function of spec.
// Cohorts are generated on GOMAXPROCS workers.
func Generate(spec Spec) (*Trace, error) {
	return generate(spec, runtime.GOMAXPROCS(0))
}

// generate is Generate on the given number of cohort-generation
// workers. Cohort streams are independent, so any worker count produces
// the identical trace — the property TestGenerateParallelDeterminism
// pins.
func generate(spec Spec, workers int) (*Trace, error) {
	if spec.DurationS <= 0 {
		return nil, fmt.Errorf("traffic: spec %q needs a positive duration, got %g", spec.Name, spec.DurationS)
	}
	if len(spec.Cohorts) == 0 {
		return nil, fmt.Errorf("traffic: spec %q has no cohorts", spec.Name)
	}
	seen := map[string]bool{}
	for i := range spec.Cohorts {
		if err := spec.Cohorts[i].validate(); err != nil {
			return nil, err
		}
		if seen[spec.Cohorts[i].Tenant] {
			return nil, fmt.Errorf("traffic: duplicate cohort tenant %q", spec.Cohorts[i].Tenant)
		}
		seen[spec.Cohorts[i].Tenant] = true
	}
	if workers < 1 {
		workers = 1
	}

	perCohort := make([][]Event, len(spec.Cohorts))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range spec.Cohorts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			perCohort[i] = generateCohort(&spec.Cohorts[i], spec.Seed, spec.DurationS)
		}(i)
	}
	wg.Wait()

	// Stable merge: offset, then tenant, then per-cohort sequence. The
	// per-cohort slices are already offset-sorted, so a sort over the
	// concatenation with the tenant tie-break is deterministic
	// regardless of generation order.
	var events []Event
	for _, evs := range perCohort {
		events = append(events, evs...)
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].OffsetS != events[b].OffsetS {
			return events[a].OffsetS < events[b].OffsetS
		}
		return events[a].Tenant < events[b].Tenant
	})
	tr := &Trace{
		SchemaVersion: SchemaVersion,
		Name:          spec.Name,
		Seed:          spec.Seed,
		DurationS:     spec.DurationS,
		Events:        events,
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// generateCohort produces one cohort's offset-sorted events from its
// independent stream. Arrival times are drawn first, then per-event
// attributes, so the arrival process of an existing trace is stable
// under changes to the class mix parameters' *order of use* — every
// event consumes a fixed draw pattern.
func generateCohort(c *Cohort, seed uint64, duration float64) []Event {
	rng := xrand.New(cohortSeed(seed, c.Tenant))
	arrivals := c.Arrival.sample(rng, duration)
	totalW := 0.0
	for _, m := range c.Mix {
		totalW += m.Weight
	}
	events := make([]Event, 0, len(arrivals))
	for _, at := range arrivals {
		// Class pick: cumulative-weight walk.
		pick := rng.Float64() * totalW
		mi := 0
		for ; mi < len(c.Mix)-1; mi++ {
			if pick < c.Mix[mi].Weight {
				break
			}
			pick -= c.Mix[mi].Weight
		}
		m := &c.Mix[mi]
		ev := Event{
			OffsetS:   at,
			Tenant:    c.Tenant,
			Class:     m.Class,
			Count:     m.Count,
			SizeBytes: m.SizeBytes,
			Seed:      rng.Uint64(),
		}
		if ev.Count <= 0 {
			ev.Count = 1
		}
		if m.MeanWorkS > 0 {
			ev.WorkHintS = rng.NormPos(m.MeanWorkS, m.StddevWorkS)
		}
		if c.DeadlineMeanS > 0 {
			d := rng.NormPos(c.DeadlineMeanS, c.DeadlineStddevS)
			ms := int64(math.Round(d * 1e3))
			if ms < 1 {
				ms = 1
			}
			ev.DeadlineMS = ms
		}
		events = append(events, ev)
	}
	return events
}

// exp draws an exponential interarrival gap at the given rate.
func expGap(rng *xrand.RNG, rate float64) float64 {
	// 1-Float64() is in (0, 1], so the log is finite.
	return -math.Log(1-rng.Float64()) / rate
}

// sample draws the cohort's arrival offsets over [0, duration).
func (a *Arrival) sample(rng *xrand.RNG, duration float64) []float64 {
	var out []float64
	switch a.Kind {
	case ArrivalPoisson:
		for t := expGap(rng, a.RateJPS); t < duration; t += expGap(rng, a.RateJPS) {
			out = append(out, t)
		}
	case ArrivalBursty:
		// MMPP-2. Exponential holding times make the discard-on-switch
		// construction exact: conditional on an interarrival extending
		// past the state boundary, memorylessness lets the next state
		// restart the draw fresh.
		t, burst := 0.0, false
		stateEnd := expGap(rng, 1/a.MeanCalmS)
		for t < duration {
			rate := a.RateJPS
			if burst {
				rate *= a.BurstFactor
			}
			next := t + expGap(rng, rate)
			if next >= stateEnd {
				t = stateEnd
				burst = !burst
				hold := a.MeanCalmS
				if burst {
					hold = a.MeanBurstS
				}
				stateEnd = t + expGap(rng, 1/hold)
				continue
			}
			t = next
			if t < duration {
				out = append(out, t)
			}
		}
	case ArrivalDiurnal:
		// Non-homogeneous Poisson by thinning: candidates at the
		// envelope's peak rate, accepted with probability rate(t)/peak.
		peak := 1.0
		for _, p := range a.Periods {
			peak += p.Amp
		}
		peakRate := a.RateJPS * peak
		for t := expGap(rng, peakRate); t < duration; t += expGap(rng, peakRate) {
			if rng.Float64()*peakRate < a.rateAt(t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// rateAt evaluates the diurnal envelope at trace time t.
func (a *Arrival) rateAt(t float64) float64 {
	f := 1.0
	for _, p := range a.Periods {
		f += p.Amp * math.Sin(2*math.Pi*t/p.PeriodS+p.Phase)
	}
	if f < 0 {
		f = 0
	}
	return a.RateJPS * f
}
