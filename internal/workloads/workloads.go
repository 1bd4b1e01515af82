// Package workloads defines the seven benchmarks of the paper's
// Table II as batched task-class mixes for the simulator, plus
// synthetic generators used by tests and sweeps.
//
// The paper runs real compression/crypto codes (BWC, Bzip-2, DMC, JPEG
// encoding, LZW, MD5, SHA-1) under MIT Cilk, launching ~128 tasks per
// batch. We cannot run the authors' exact binaries, so each benchmark
// is modeled as its task-class structure: the classes (pipeline stages
// or input-size strata, named like "sha1/file"), the per-batch task
// count of each class, and per-task CPU-bound work with a small
// iteration-to-iteration jitter — the precise information EEWA's
// profiler consumes. The class mixes are calibrated so that the Cilk
// baseline exhibits each benchmark's published utilization headroom,
// which is the quantity that determines every number in Figs. 6–9
// (see DESIGN.md §2 and EXPERIMENTS.md for measured-vs-paper values).
//
// internal/kernels contains real from-scratch implementations of the
// same algorithm families; the live-runtime example executes those as
// task payloads, while the simulator uses the calibrated class mixes.
package workloads

import (
	"fmt"

	"repro/internal/task"
)

// DefaultBatches is the number of batches per benchmark run, matching
// the 10-batch traces of the paper's Fig. 8.
const DefaultBatches = 10

// Benchmark is one entry of the paper's Table II.
type Benchmark struct {
	// Name is the paper's benchmark name (lower-cased).
	Name string
	// Desc is the paper's one-line description.
	Desc string
	// Specs is the per-batch task-class mix.
	Specs []task.ClassSpec
	// Batches is the number of iterations in a run.
	Batches int
}

// Workload instantiates the benchmark's batches deterministically from
// a seed.
func (b Benchmark) Workload(seed uint64) *task.Workload {
	return task.MustGenerate(b.Name, b.Batches, b.Specs, seed)
}

// All returns the seven benchmarks of Table II. The mixes are frozen:
// every experiment and test in this repository derives from them, so
// changing a number here changes the output blocks and the scorecard
// of EXPERIMENTS.md and README.md, which TestDocsMatchPrograms
// (internal/experiments) diffs against the code.
func All() []Benchmark {
	return []Benchmark{
		{
			Name: "bwc",
			Desc: "Burrows-Wheeler Transforming Compression",
			Specs: []task.ClassSpec{
				{Name: "bwc/bwt", Count: 14, MeanWork: 0.095, JitterFrac: 0.05},
				{Name: "bwc/mtf", Count: 50, MeanWork: 0.016, JitterFrac: 0.05},
				{Name: "bwc/huff", Count: 64, MeanWork: 0.008, JitterFrac: 0.05},
			},
			Batches: DefaultBatches,
		},
		{
			Name: "bzip2",
			Desc: "Bzip2 file compression algorithm",
			Specs: []task.ClassSpec{
				{Name: "bz2/block", Count: 24, MeanWork: 0.070, JitterFrac: 0.05},
				{Name: "bz2/entropy", Count: 104, MeanWork: 0.012, JitterFrac: 0.05},
			},
			Batches: DefaultBatches,
		},
		{
			Name: "dmc",
			Desc: "Dynamic Markov Coding",
			Specs: []task.ClassSpec{
				{Name: "dmc/model", Count: 8, MeanWork: 0.085, JitterFrac: 0.05},
				{Name: "dmc/encode", Count: 56, MeanWork: 0.018, JitterFrac: 0.05},
				{Name: "dmc/flush", Count: 64, MeanWork: 0.006, JitterFrac: 0.05},
			},
			Batches: DefaultBatches,
		},
		{
			Name: "je",
			Desc: "JPEG Encoding Algorithm",
			Specs: []task.ClassSpec{
				{Name: "je/head", Count: 2, MeanWork: 0.100, JitterFrac: 0.05},
				{Name: "je/dct", Count: 48, MeanWork: 0.036, JitterFrac: 0.05},
				{Name: "je/huff", Count: 78, MeanWork: 0.007, JitterFrac: 0.05},
			},
			Batches: DefaultBatches,
		},
		{
			Name: "lzw",
			Desc: "Lempel-Ziv-Welch data compression",
			Specs: []task.ClassSpec{
				{Name: "lzw/dict", Count: 16, MeanWork: 0.085, JitterFrac: 0.05},
				{Name: "lzw/emit", Count: 112, MeanWork: 0.010, JitterFrac: 0.05},
			},
			Batches: DefaultBatches,
		},
		{
			Name: "md5",
			Desc: "Message Digest Algorithm",
			Specs: []task.ClassSpec{
				{Name: "md5/file", Count: 7, MeanWork: 0.120, JitterFrac: 0.03},
				{Name: "md5/chunk", Count: 121, MeanWork: 0.0055, JitterFrac: 0.05},
			},
			Batches: DefaultBatches,
		},
		{
			Name: "sha1",
			Desc: "SHA-1 cryptographic hash function",
			Specs: []task.ClassSpec{
				{Name: "sha1/file", Count: 5, MeanWork: 0.170, JitterFrac: 0.03},
				{Name: "sha1/chunk", Count: 123, MeanWork: 0.0046, JitterFrac: 0.05},
			},
			Batches: DefaultBatches,
		},
	}
}

// ByName returns the benchmark with the given name: one of All, or
// "membound" (MemoryBound).
func ByName(name string) (Benchmark, error) {
	for _, b := range append(All(), MemoryBound()) {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names returns the benchmark names in table order.
func Names() []string {
	bs := All()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// MemoryBound returns a synthetic memory-bound application: every task
// has a cache-miss intensity far above the profiler threshold and a
// large frequency-insensitive share. EEWA must detect it after the
// first batch and fall back to classic work stealing (§IV-D); the
// MemAware extension instead calibrates and schedules from the fitted
// frequency-response models. Shaped like the CPU-bound mixes — a
// chunky straggler class plus a fine class — so there is headroom for
// the extension to exploit.
func MemoryBound() Benchmark {
	return Benchmark{
		Name: "membound",
		Desc: "synthetic memory-bound workload (EEWA §IV-D fallback and MemAware extension)",
		Specs: []task.ClassSpec{
			{Name: "mb/stream", Count: 8, MeanWork: 0.100, JitterFrac: 0.04, MemFrac: 0.7, CacheMissIntensity: 0.05},
			{Name: "mb/gather", Count: 120, MeanWork: 0.008, JitterFrac: 0.05, MemFrac: 0.6, CacheMissIntensity: 0.08},
		},
		Batches: DefaultBatches,
	}
}

// Synthetic builds a two-class workload with a tunable utilization
// headroom: heavyFrac of the total work sits in a chunky straggler
// class. Used by sweeps and property tests.
func Synthetic(name string, heavyCount int, heavyWork float64, lightCount int, lightWork float64, batches int) Benchmark {
	return Benchmark{
		Name: name,
		Desc: "synthetic two-class workload",
		Specs: []task.ClassSpec{
			{Name: name + "/heavy", Count: heavyCount, MeanWork: heavyWork, JitterFrac: 0.05},
			{Name: name + "/light", Count: lightCount, MeanWork: lightWork, JitterFrac: 0.05},
		},
		Batches: batches,
	}
}
