package cctable

import "math"

// fnv64 is the FNV-1a offset/prime pair used for fingerprinting.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h ^= (v >> shift) & 0xff
		h *= fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return fnvMix(h, uint64(len(s)))
}

// Fingerprint identifies the inputs of SearchTuple(m) on this table: the
// profile that produced it (class names, counts and exact weight bits),
// the frequency ladder, the ideal time T, the core budget m — and, to
// stay exact for tables whose entries were derived another way (FromCounts,
// memmodel's model-corrected tables), the CC matrix itself. Two tables
// with equal fingerprints run the identical backtracking search, so a
// cached tuple can stand in for re-running it.
func (t *Table) Fingerprint(m int) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(m))
	h = fnvMix(h, math.Float64bits(t.T))
	h = fnvMix(h, uint64(t.R()))
	for _, f := range t.Ladder {
		h = fnvMix(h, math.Float64bits(f))
	}
	h = fnvMix(h, uint64(t.K()))
	for i := range t.Classes {
		c := &t.Classes[i]
		h = fnvString(h, c.Name)
		h = fnvMix(h, uint64(c.Count))
		h = fnvMix(h, math.Float64bits(c.AvgWork))
		h = fnvMix(h, math.Float64bits(c.MaxWork))
	}
	for j := range t.CC {
		for _, cc := range t.CC[j] {
			h = fnvMix(h, uint64(cc))
		}
	}
	return h
}

// Cache memoizes SearchTuple results across tables keyed by Fingerprint,
// so batches whose profile (class set + weights + T) did not change skip
// the backtracking search entirely — the common case for steady-state
// workloads, where the adjuster re-derives the same plan every batch.
//
// A Cache is not safe for concurrent use; each Adjuster owns one (both
// engines plan single-threaded, at the batch barrier).
type Cache struct {
	entries map[uint64]cacheEntry
	tuples  []int // every memoized tuple, end to end
	max     int

	// Hits and Misses count lookups; StepsTotal accumulates the Select
	// attempts of every search that actually ran. Together they keep the
	// observability layer truthful when the memoized path reports
	// LastSearchSteps = 0 (a hit performs no Select attempts).
	Hits, Misses uint64
	StepsTotal   uint64
}

// cacheEntry locates one search's tuple in Cache.tuples.
type cacheEntry struct {
	off, k int
	ok     bool
}

// DefaultCacheSize bounds a plan cache built by NewCache(0). Plans are
// tiny (a k-slice), so the bound exists only to keep pathological
// profile churn from growing the map without limit.
const DefaultCacheSize = 256

// NewCache returns an empty plan cache holding at most max entries
// (DefaultCacheSize when max <= 0). When full it resets wholesale —
// cheaper than LRU bookkeeping, and a full cache of one-shot
// fingerprints has no reuse worth preserving anyway.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{entries: make(map[uint64]cacheEntry), max: max}
}

// SearchTuple returns what t.SearchTuple(m) would, consulting the cache
// first. On a hit the backtracking search is skipped, t.LastSearchSteps
// is set to 0 (no Select attempts happened on this call — the pre-fix
// code left the previous table's count dangling in metrics), and hit is
// true. On a miss the search runs and its result is memoized, including
// the infeasible outcome — an infeasible profile stays infeasible. The
// returned tuple is the table's own either way, as from t.SearchTuple.
// The memo lives in the cache's map and one slab, both kept across the
// wholesale reset, so a cache that has filled once allocates nothing.
func (c *Cache) SearchTuple(t *Table, m int) (tuple []int, ok, hit bool) {
	key := t.Fingerprint(m)
	if e, have := c.entries[key]; have {
		c.Hits++
		t.LastSearchSteps = 0
		t.tuple = append(t.tuple[:0], c.tuples[e.off:e.off+e.k]...)
		return t.tuple, e.ok, true
	}
	c.Misses++
	tuple, ok = t.SearchTuple(m)
	c.StepsTotal += uint64(t.LastSearchSteps)
	if len(c.entries) >= c.max {
		clear(c.entries)
		c.tuples = c.tuples[:0]
	}
	c.entries[key] = cacheEntry{off: len(c.tuples), k: len(tuple), ok: ok}
	c.tuples = append(c.tuples, tuple...)
	return tuple, ok, false
}

// Len returns the number of memoized searches.
func (c *Cache) Len() int { return len(c.entries) }
