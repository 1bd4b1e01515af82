// Package profile implements EEWA's online profiler (paper §III-A-1).
//
// During each batch the scheduler reports every completed task's
// execution time together with the frequency level of the core that ran
// it. The profiler normalizes the time against the fastest frequency
// (Eq. 1: w = t · Fi/F0), then folds the task into its *task class*
// TC(f, n, w), keyed by function name, maintaining the running average
// workload exactly as the paper specifies:
//
//	TC(f, n, w)  +  task with workload wγ  →  TC(f, n+1, (n·w + wγ)/(n+1))
//
// The profiler also mirrors the paper's §IV-D memory-boundness test: it
// accumulates a modeled cache-miss-per-instruction counter for each
// task and labels a task memory-bound when the intensity exceeds a
// threshold; an application is memory-bound when most of its first-batch
// tasks are.
package profile

import (
	"fmt"

	"repro/internal/machine"
)

// DefaultMemBoundThreshold is the cache-miss-intensity above which a
// task counts as memory-bound. The paper leaves the constant to the
// implementation ("larger than a given threshold"); 0.01
// misses/instruction ≈ an LLC-miss-dominated task on the modeled parts.
const DefaultMemBoundThreshold = 0.01

// Class is a task class TC(f, n, w): function name, task count and
// average normalized workload (seconds at F0). MaxWork additionally
// tracks the largest single normalized workload seen — the quantity
// that bounds how far the class can be down-clocked before one task no
// longer fits in the ideal iteration time (task indivisibility; see
// cctable.Table.RebuildGranular). MemFrac is the frequency-insensitive share of
// a task's F0 time, measured for memory-bound classes by
// internal/memmodel's fit; its zero value is the paper's CPU-bound
// model, where all of a task's time scales with F0/Fj.
type Class struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	AvgWork float64 `json:"avg_work_s"`
	MaxWork float64 `json:"max_work_s"`
	MemFrac float64 `json:"mem_frac,omitempty"`
}

// TotalWork returns n·w, the class's aggregate workload — the numerator
// of every CC-table entry.
func (c Class) TotalWork() float64 { return float64(c.Count) * c.AvgWork }

// rawStats accumulates un-normalized execution times per frequency
// level for one class — the inputs of the memory-bound frequency-
// response model (§IV-D future work, implemented in internal/memmodel).
type rawStats struct {
	sum   []float64
	count []int
}

// record is everything the profiler keeps under one function name. It
// outlives Reset: the class is zeroed (Count 0 = not seen this batch,
// and invisible to Classes and NumClasses), the raw
// observations persist.
type record struct {
	class Class
	raw   rawStats
}

// Profiler collects per-batch workload information. It is not
// concurrency-safe: the simulator is single-threaded, and the live
// runtime's workers keep their own per-class totals and the RunBatch
// caller folds them in (RecordBulk) after the barrier.
type Profiler struct {
	ladder  machine.FreqLadder
	records map[string]*record
	order   []*record // seen this batch, in first-seen order
	sorted  []Class   // what Classes returns, reused from call to call
	gen     uint64    // bumped by Reset; invalidates ClassRef caches

	// memory-boundness bookkeeping
	memBoundTasks int
	totalTasks    int
}

// New creates a profiler for a machine with the given frequency ladder.
func New(ladder machine.FreqLadder) *Profiler {
	if err := ladder.Validate(); err != nil {
		panic("profile: " + err.Error())
	}
	return &Profiler{
		ladder:  ladder,
		records: make(map[string]*record),
		sorted:  []Class{}, // Classes never returns nil
	}
}

// Normalize applies Eq. 1: a task that took t seconds on a core at
// frequency level j has workload t · Fj/F0 (its hypothetical time on
// the fastest core, assuming CPU-bound behaviour).
func (p *Profiler) Normalize(t float64, level int) float64 {
	if level < 0 || level >= len(p.ladder) {
		panic(fmt.Sprintf("profile: invalid frequency level %d", level))
	}
	return t * p.ladder[level] / p.ladder[0]
}

// Record folds one completed task into its class. execTime is the
// observed wall time on a core at frequency level `level`;
// missIntensity is the modeled cache-misses-per-instruction counter.
func (p *Profiler) Record(name string, execTime float64, level int, missIntensity float64) {
	p.recordInto(p.entry(name), execTime, level, missIntensity)
}

// entry returns (creating on first use) the record for name, for a
// caller about to fold a task into it: a record not yet seen this batch
// joins order, so the order is first-record order — the deterministic
// tie-break Classes() sorts by.
func (p *Profiler) entry(name string) *record {
	rec, ok := p.records[name]
	if !ok {
		rec = &record{
			class: Class{Name: name},
			raw:   rawStats{sum: make([]float64, len(p.ladder)), count: make([]int, len(p.ladder))},
		}
		p.records[name] = rec
	}
	if rec.class.Count == 0 {
		p.order = append(p.order, rec)
	}
	return rec
}

// recordInto folds one completed task into a pre-resolved record.
func (p *Profiler) recordInto(rec *record, execTime float64, level int, missIntensity float64) {
	p.foldInto(rec, 1, execTime, execTime, level)
	if missIntensity > DefaultMemBoundThreshold {
		p.memBoundTasks++
	}
}

// foldInto folds count tasks run at one level — summed execution time
// sumExec, longest single task maxExec — into a pre-resolved record.
func (p *Profiler) foldInto(rec *record, count int, sumExec, maxExec float64, level int) {
	if sumExec < 0 || maxExec < 0 {
		panic(fmt.Sprintf("profile: negative execution time %g", min(sumExec, maxExec)))
	}
	c, rs := &rec.class, &rec.raw
	// Running-average update: for one task exactly the paper's
	// TC(f, n+1, (n·w + wγ)/(n+1)), for several the same mean in one step.
	c.AvgWork = (float64(c.Count)*c.AvgWork + p.Normalize(sumExec, level)) / float64(c.Count+count)
	c.Count += count
	if w := p.Normalize(maxExec, level); w > c.MaxWork {
		c.MaxWork = w
	}

	rs.sum[level] += sumExec
	rs.count[level] += count

	p.totalTasks += count
}

// RecordBulk folds count tasks of one class, all run at frequency level
// `level`, in one step: sumExec is their summed execution time and
// maxExec the longest single one. The result equals recording the same
// tasks one by one with a zero miss intensity, up to float rounding
// (the running average becomes one weighted mean instead of count
// incremental ones). The live runtime folds each worker's per-class
// totals through this at the batch barrier.
func (p *Profiler) RecordBulk(name string, count int, sumExec, maxExec float64, level int) {
	if count <= 0 {
		return
	}
	p.foldInto(p.entry(name), count, sumExec, maxExec, level)
}

// ClassRef is a per-class recording handle that skips the map lookup
// Record pays per task. A ref survives Reset: it lazily
// re-resolves its entries on first use in each profiling generation,
// so classes are still registered in first-*completion* order per
// batch (the order Classes() tie-breaks by) — holding a ref does not
// by itself create the class.
type ClassRef struct {
	p    *Profiler
	name string
	gen  uint64
	rec  *record
}

// Ref returns a recording handle for class name. The handle is owned
// by the profiler's thread (the sim event loop); it is not
// concurrency-safe.
func (p *Profiler) Ref(name string) *ClassRef {
	return &ClassRef{p: p, name: name, gen: p.gen - 1}
}

// Record folds one completed task into the ref's class, exactly as
// Profiler.Record(name, ...) would.
func (r *ClassRef) Record(execTime float64, level int, missIntensity float64) {
	p := r.p
	if r.gen != p.gen {
		r.rec = p.entry(r.name)
		r.gen = p.gen
	}
	p.recordInto(r.rec, execTime, level, missIntensity)
}

// Classes returns the current task classes sorted by descending average
// workload (the order the CC table requires: w_i descending), breaking
// ties by first-seen order so results are deterministic. The slice is
// the profiler's own, overwritten by the next call: copy what must
// outlive it.
func (p *Profiler) Classes() []Class {
	// A stable insertion sort from first-seen order: k is a handful.
	out := p.sorted[:0]
	for _, rec := range p.order {
		c := rec.class
		if c.Count == 0 {
			continue
		}
		i := len(out)
		out = append(out, c)
		for ; i > 0 && out[i-1].AvgWork < c.AvgWork; i-- {
			out[i] = out[i-1]
		}
		out[i] = c
	}
	p.sorted = out
	return out
}

// NumClasses returns k, the number of distinct task classes seen this
// batch.
func (p *Profiler) NumClasses() int { return len(p.order) }

// MemoryBound reports whether the application should be treated as
// memory-bound: the paper's rule is "if most tasks of an application
// are memory-bound" — we use a strict majority.
func (p *Profiler) MemoryBound() bool {
	return p.totalTasks > 0 && p.memBoundTasks*2 > p.totalTasks
}

// Reset clears per-batch state. EEWA re-profiles every batch (workloads
// drift between iterations), so the scheduler calls Reset at each batch
// barrier after the adjuster has consumed the classes. Memory-bound
// counters persist: the paper classifies the application once, from the
// first batch.
func (p *Profiler) Reset() {
	for _, rec := range p.order {
		rec.class = Class{Name: rec.class.Name}
	}
	p.order = p.order[:0]
	p.gen++ // stale ClassRefs re-resolve (and rejoin order) on next Record
	// Raw per-level observations persist across batches: the memory-
	// bound frequency-response model needs samples from *different*
	// batches (each run at different levels) to fit its two
	// coefficients.
}

// RawAvg returns the average un-normalized execution time of class
// `name` on cores at frequency level `level`, and whether any sample
// exists. Unlike Classes, raw observations accumulate across batches.
func (p *Profiler) RawAvg(name string, level int) (float64, bool) {
	rec, ok := p.records[name]
	if !ok || level < 0 || level >= len(p.ladder) || rec.raw.count[level] == 0 {
		return 0, false
	}
	return rec.raw.sum[level] / float64(rec.raw.count[level]), true
}

// RawLevels returns the frequency levels at which class `name` has
// been observed, in ascending order.
func (p *Profiler) RawLevels(name string) []int {
	rec, ok := p.records[name]
	if !ok {
		return nil
	}
	var out []int
	for lvl, n := range rec.raw.count {
		if n > 0 {
			out = append(out, lvl)
		}
	}
	return out
}
