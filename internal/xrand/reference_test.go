package xrand

import (
	"math"
	"testing"
)

// refIntn is Intn as it was before it skipped the threshold for draws
// at or above n, kept verbatim as the reference TestIntnMatchesReference
// and TestPermIntoMatchesReference hold the shortcut to.
func refIntn(r *RNG, n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free variant is overkill at this
	// scale; simple modulo bias is < 2^-40 for the n values used here,
	// but we keep the rejection loop anyway for correctness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// refPermInto is PermInto drawing through refIntn.
func refPermInto(r *RNG, p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := refIntn(r, i+1)
		p[i], p[j] = p[j], p[i]
	}
}

// intnBounds is every n the reference test draws for: 1…1024, 2^k − 1,
// 2^k and 2^k + 1 up to 2^62, and math.MaxInt.
func intnBounds() []int {
	var ns []int
	for n := 1; n <= 1024; n++ {
		ns = append(ns, n)
	}
	for k := 11; k <= 62; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	return append(ns, math.MaxInt)
}

func TestIntnMatchesReference(t *testing.T) {
	ns := intnBounds()
	for seed := uint64(0); seed < 32; seed++ {
		r, ref := New(Split(seed, 0)), New(Split(seed, 0))
		for _, n := range ns {
			for k := 0; k < 4; k++ {
				got, want := r.Intn(n), refIntn(ref, n)
				if got != want || r.state != ref.state {
					t.Fatalf("seed %d Intn(%d) draw %d = %d (state %#x), reference %d (state %#x)", seed, n, k, got, r.state, want, ref.state)
				}
			}
		}
	}
}

// unmix inverts splitmix64's output finalizer: Uint64 returns mix(s)
// for the state s it advanced to, so New(unmix(v) − γ) draws v next.
func unmix(z uint64) uint64 {
	z = unshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// unshift inverts z ^= z >> s.
func unshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64/s+1; i++ {
		x = y ^ x>>s
	}
	return x
}

// inverse returns the multiplicative inverse of odd c modulo 2^64
// (Newton's iteration; each step doubles the correct low bits).
func inverse(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}

// gamma is splitmix64's state increment per draw.
const gamma uint64 = 0x9E3779B97F4A7C15

// seedDrawing returns a seed whose generator's next output is v.
func seedDrawing(v uint64) uint64 { return unmix(v) - gamma }

// Seeds whose first draw sits on either side of n and of the threshold
// 2^64 mod n reach every branch of Intn deterministically: the
// fast accept (v ≥ n), the slow accept (threshold ≤ v < n) and the
// rejection (v < threshold), after which the next draw is used.
func TestIntnBranchesMatchReference(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 3, 7} {
		if got := New(seedDrawing(v)).Uint64(); got != v {
			t.Fatalf("seedDrawing(%d) draws %d", v, got)
		}
	}
	// n = 3: threshold 1, so a first draw of 0 must be rejected.
	r := New(seedDrawing(0))
	next := New(seedDrawing(0))
	next.Uint64()
	want := int(next.Uint64() % 3)
	if got := r.Intn(3); got != want || r.state != next.state {
		t.Fatalf("Intn(3) after a zero draw = %d (state %#x), want the next draw's %d (state %#x)", got, r.state, want, next.state)
	}
	for _, n := range []int{3, 5, 6, 7, 1<<62 + 1, 1<<62 - 1, math.MaxInt} {
		bound := uint64(n)
		threshold := -bound % bound
		draws := []uint64{bound, bound + 1, bound - 1, threshold}
		if threshold > 0 {
			draws = append(draws, threshold-1, 0)
		}
		for _, v := range draws {
			r, ref := New(seedDrawing(v)), New(seedDrawing(v))
			got, want := r.Intn(n), refIntn(ref, n)
			if got != want || r.state != ref.state {
				t.Fatalf("Intn(%d) with first draw %d = %d (state %#x), reference %d (state %#x)", n, v, got, r.state, want, ref.state)
			}
		}
	}
}

// permSeeds are the seeds the permutation tests start from: two whose
// first draw is 0 or 1 (rejected or accepted by Intn(3)'s threshold),
// then 64 split streams.
func permSeeds() []uint64 {
	seeds := []uint64{seedDrawing(0), seedDrawing(1)}
	for s := uint64(0); s < 64; s++ {
		seeds = append(seeds, Split(s, 1))
	}
	return seeds
}

func TestPermIntoMatchesReference(t *testing.T) {
	for _, seed := range permSeeds() {
		for size := 0; size <= 64; size++ {
			r, ref := New(seed), New(seed)
			got, want := make([]int, size), make([]int, size)
			r.PermInto(got)
			refPermInto(ref, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %#x PermInto(%d) = %v, reference %v", seed, size, got, want)
				}
			}
			if r.state != ref.state {
				t.Fatalf("seed %#x PermInto(%d): state %#x, reference %#x", seed, size, r.state, ref.state)
			}
		}
	}
	// The first draw of a 3-element permutation is Intn(3); from a seed
	// that draws 0 it is rejected, so the permutation takes three draws:
	// the rejected one, Intn(3)'s second, and Intn(2)'s.
	r := New(seedDrawing(0))
	r.PermInto(make([]int, 3))
	if want := seedDrawing(0) + gamma + gamma + gamma; r.state != want {
		t.Fatalf("PermInto(3) from a zero draw: state %#x, want %#x (three draws)", r.state, want)
	}
}

// SkipPerm must leave the generator where PermInto of the same size
// does, or a dry steal walk would shift every later victim draw.
func TestSkipPermMatchesPermInto(t *testing.T) {
	for _, seed := range permSeeds() {
		for size := 0; size <= 64; size++ {
			r, ref := New(seed), New(seed)
			r.SkipPerm(size)
			ref.PermInto(make([]int, size))
			if r.state != ref.state {
				t.Fatalf("seed %#x SkipPerm(%d): state %#x, PermInto %#x", seed, size, r.state, ref.state)
			}
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) in a new slice.
// It is the reference TestPermIntoMatchesPerm holds PermInto to.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
