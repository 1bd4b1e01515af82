// Package xrand provides a small, fast, deterministic random number
// generator (splitmix64) used throughout the EEWA simulator and workload
// generators.
//
// Determinism matters here more than statistical perfection: every
// experiment in this repository must reproduce bit-identical schedules
// from the same seed so that the reported tables are stable across runs
// and machines. math/rand would also work, but carrying our own
// generator keeps the stream format frozen regardless of Go version and
// lets simulator state embed the generator by value.
package xrand

import "math"

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; prefer New for clarity.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// It returns v % n for the first draw v at or above the threshold
// 2^64 mod n, rejecting the draws below it so every residue has the
// same number of preimages. The threshold is always below n, so a draw
// v ≥ n is accepted without computing it; only a draw below n pays the
// second division. Values and generator state are the same either way.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	v := r.Uint64()
	if v >= bound {
		return int(v % bound)
	}
	threshold := -bound % bound
	for v < threshold {
		v = r.Uint64()
	}
	return int(v % bound)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, via the Box–Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// NormPos returns a strictly positive draw from the normal
// distribution with the given mean and standard deviation, by
// rejection: non-positive draws are discarded and the transform rerun.
// Work and deadline sampling must use this instead of Norm — a plain
// normal can go non-positive, and a zero-work task or zero deadline is
// invalid everywhere downstream (task.Workload.Validate rejects it,
// and a replayed trace must never carry one). The rejection loop is
// deterministic for a given generator state; callers with mean ≤ 0 or
// an extreme stddev/mean ratio still terminate via the bounded
// fallback (the magnitude of the last draw, floored at mean·1e-9 or
// stddev·1e-9, whichever is positive).
func (r *RNG) NormPos(mean, stddev float64) float64 {
	var v float64
	for i := 0; i < 128; i++ {
		v = r.Norm(mean, stddev)
		if v > 0 {
			return v
		}
	}
	// Pathological parameters (mean far below zero): fall back to a
	// positive magnitude so callers never observe a non-positive value.
	if v = math.Abs(v); v > 0 {
		return v
	}
	if mean > 0 {
		return mean * 1e-9
	}
	if stddev != 0 {
		return math.Abs(stddev) * 1e-9
	}
	return 1e-12 // degenerate (mean ≤ 0, stddev = 0): any positive constant
}

// Jitter returns base scaled by a uniform factor in
// [1-frac, 1+frac], clamped to be strictly positive. It models the
// paper's assumption that "workloads of tasks may change slightly in
// different iterations".
func (r *RNG) Jitter(base, frac float64) float64 {
	if frac <= 0 {
		return base
	}
	v := base * r.Range(1-frac, 1+frac)
	if v <= 0 {
		v = base * 0.01
	}
	return v
}

// Shuffle pseudo-randomly permutes the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split returns a new generator derived from this one, so that
// independent subsystems (e.g. each simulated core's victim selection)
// can draw without perturbing each other's streams.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()}
}

// Split derives the seed of an independent stream for one cell of a
// partitioned computation (e.g. one shard of a simulated cluster, one
// tenant of a traffic trace) from a base seed and a stable cell
// identifier. The
// derivation is pure — no generator state is consumed — so every cell's
// stream is the same whether the cells run sequentially, in parallel,
// or in any order: seed the cell's RNG with Split(seed, cell) instead
// of drawing from a shared generator. The mix is the splitmix64
// finalizer over seed advanced by (cell+1) golden-ratio increments,
// i.e. cell steps ahead in the splitmix64 sequence of seed.
func Split(seed, cell uint64) uint64 {
	z := seed + (cell+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)),
// drawing exactly the same values from r as the allocating Perm(len(p))
// that the tests keep as its reference (TestPermIntoMatchesPerm) —
// callers on hot paths reuse one buffer across calls without perturbing
// streams that were recorded against Perm.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SkipPerm advances r exactly as PermInto of an n-element slice does —
// the same Uint64 draws, Intn's rejection redraws included — without
// building the permutation. A draw at or above the bound is accepted
// outright, so only a draw below it pays the threshold division.
func (r *RNG) SkipPerm(n int) {
	for i := n - 1; i > 0; i-- {
		bound := uint64(i + 1)
		if v := r.Uint64(); v < bound {
			threshold := -bound % bound
			for v < threshold {
				v = r.Uint64()
			}
		}
	}
}
