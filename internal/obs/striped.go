package obs

import (
	"math"
	rand "math/rand/v2"
	"runtime"
	"sync/atomic"
)

// Striped metric variants for write-hot shared words. A plain Counter
// or Gauge is one atomic word: every Add from every core lands on the
// same cache line, so under multi-core ingest storms the line
// ping-pongs and the CAS loop retries. The striped variants spread the
// value over cacheLine-padded cells — writers pick a cell with the
// runtime's per-thread fast random source (math/rand/v2's global
// functions, no lock, no shared state) and only readers pay the
// sum-over-cells cost. Reads are snapshot-consistent per cell, not
// across cells, exactly like every multi-shard aggregate in this
// package.
//
// The serve ingest path uses these for its hottest cluster-total
// families (admissions, in-flight tasks). Everything merges back to the
// plain types at export time, so the Prometheus/JSON surface is
// unchanged.

// cacheLine is the assumed coherence-granule size. 64 bytes covers
// x86-64 and most arm64 parts; on 128-byte-line hosts two cells share a
// line, which halves the striping benefit but stays correct.
const cacheLine = 64

// paddedWord is one atomic float64 cell padded to a full cache line so
// neighboring cells never share one.
type paddedWord struct {
	bits atomic.Uint64
	_    [cacheLine - 8]byte
}

func (w *paddedWord) add(v float64) {
	for {
		old := w.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if w.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// stripeCount returns the stripe count for n (0 means "pick for this
// host"): a power of two so stripe selection is a mask, capped to keep
// the read-side sum and the per-metric footprint small.
func stripeCount(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// StripedCounter is a monotone counter striped over cache-line-padded
// cells. Add/Inc are lock-free and contention-free across cores;
// Value sums the cells. A nil *StripedCounter no-ops.
type StripedCounter struct {
	cells []paddedWord
	mask  uint64
}

// NewStripedCounter returns a counter with the given stripe count
// (rounded up to a power of two; 0 picks one per GOMAXPROCS).
func NewStripedCounter(stripes int) *StripedCounter {
	n := stripeCount(stripes)
	return &StripedCounter{cells: make([]paddedWord, n), mask: uint64(n - 1)}
}

// Add increases the counter by v (v < 0 is ignored — counters are
// monotone).
func (c *StripedCounter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.cells[rand.Uint64()&c.mask].add(v)
}

// Inc adds one.
func (c *StripedCounter) Inc() { c.Add(1) }

// Value returns the summed count across stripes.
func (c *StripedCounter) Value() float64 {
	if c == nil {
		return 0
	}
	var sum float64
	for i := range c.cells {
		sum += math.Float64frombits(c.cells[i].bits.Load())
	}
	return sum
}

// StripedGauge is a delta-maintained gauge striped over
// cache-line-padded cells: writers Add signed deltas (never Set — a
// striped value has no single word to replace), readers sum. The
// serve layer maintains its in-flight task gauge this way: +n at
// admission, −n as tasks leave, cluster total at read time. A nil
// *StripedGauge no-ops.
type StripedGauge struct {
	cells []paddedWord
	mask  uint64
}

// NewStripedGauge returns a gauge with the given stripe count (rounded
// up to a power of two; 0 picks one per GOMAXPROCS).
func NewStripedGauge(stripes int) *StripedGauge {
	n := stripeCount(stripes)
	return &StripedGauge{cells: make([]paddedWord, n), mask: uint64(n - 1)}
}

// Add shifts the value by v (may be negative).
func (g *StripedGauge) Add(v float64) {
	if g == nil {
		return
	}
	g.cells[rand.Uint64()&g.mask].add(v)
}

// Value returns the summed value across stripes.
func (g *StripedGauge) Value() float64 {
	if g == nil {
		return 0
	}
	var sum float64
	for i := range g.cells {
		sum += math.Float64frombits(g.cells[i].bits.Load())
	}
	return sum
}

// StripedCounter registers (or fetches) an unlabeled striped counter.
// It exports as an ordinary counter family.
func (r *Registry) StripedCounter(name, help string) *StripedCounter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindStripedCounter, nil, nil).plain.(*StripedCounter)
}

// StripedGauge registers (or fetches) an unlabeled striped gauge. It
// exports as an ordinary gauge family.
func (r *Registry) StripedGauge(name, help string) *StripedGauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindStripedGauge, nil, nil).plain.(*StripedGauge)
}
