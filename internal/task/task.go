// Package task defines the task, batch and workload model shared by the
// EEWA simulator, the live runtime and the experiment harness.
//
// The paper targets *iteration-based* (batch-based) parallel programs:
// the program repeatedly launches a batch of parallel tasks (e.g. 128,
// as Cilk++ recommends), waits for the batch barrier, then launches the
// next. Tasks carry a *function name*; tasks sharing a name form a
// *task class* whose average workload EEWA profiles online.
//
// Work is expressed in seconds-at-F0: the time the task needs on a core
// running at the fastest frequency. A CPU-bound task on a core at
// frequency Fj takes Work · F0/Fj. A partially memory-bound task keeps
// MemFrac of its time frequency-insensitive:
//
//	t(j) = Work · (MemFrac + (1-MemFrac) · F0/Fj)
//
// which is the standard leading-order model and the reason the paper's
// Section IV-D excludes memory-bound applications from frequency
// scaling: the CC table assumes MemFrac ≈ 0.
package task

import (
	"fmt"

	"repro/internal/xrand"
)

// Task is one unit of parallel work.
type Task struct {
	// ID is unique within a workload; useful for tracing.
	ID int
	// Class is the task's function name (f in TC(f, n, w)).
	Class string
	// Work is the execution time in seconds on a core at F0.
	Work float64
	// MemFrac is the fraction of execution time that does not scale
	// with core frequency (0 = perfectly CPU-bound).
	MemFrac float64
	// CacheMissIntensity models the hardware counter ratio
	// cache-misses / retired-instructions the paper samples during the
	// first batch to classify tasks as memory-bound.
	CacheMissIntensity float64
}

// TimeAt returns the task's execution time on a core at frequency level
// j of ladder ratios, where ratio = F0/Fj.
func (t *Task) TimeAt(ratio float64) float64 {
	return t.Work * (t.MemFrac + (1-t.MemFrac)*ratio)
}

// Batch is one iteration's worth of tasks, executed between two
// barriers.
type Batch struct {
	Tasks []Task
}

// TotalWork returns the sum of the batch's Work values (seconds at F0).
func (b *Batch) TotalWork() float64 {
	sum := 0.0
	for i := range b.Tasks {
		sum += b.Tasks[i].Work
	}
	return sum
}

// Workload is a named sequence of batches — one complete application
// run in the paper's model.
type Workload struct {
	Name    string
	Batches []Batch
}

// TotalTasks returns the task count across all batches.
func (w *Workload) TotalTasks() int {
	n := 0
	for i := range w.Batches {
		n += len(w.Batches[i].Tasks)
	}
	return n
}

// TotalWork returns the summed Work across all batches.
func (w *Workload) TotalWork() float64 {
	sum := 0.0
	for i := range w.Batches {
		sum += w.Batches[i].TotalWork()
	}
	return sum
}

// Validate checks the workload is non-degenerate: at least one batch,
// every batch non-empty, and every task with positive work.
func (w *Workload) Validate() error {
	if len(w.Batches) == 0 {
		return fmt.Errorf("task: workload %q has no batches", w.Name)
	}
	for bi := range w.Batches {
		b := &w.Batches[bi]
		if len(b.Tasks) == 0 {
			return fmt.Errorf("task: workload %q batch %d is empty", w.Name, bi)
		}
		for ti := range b.Tasks {
			tk := &b.Tasks[ti]
			if tk.Work <= 0 {
				return fmt.Errorf("task: workload %q batch %d task %d has non-positive work %g", w.Name, bi, ti, tk.Work)
			}
			if tk.MemFrac < 0 || tk.MemFrac > 1 {
				return fmt.Errorf("task: workload %q batch %d task %d has MemFrac %g outside [0,1]", w.Name, bi, ti, tk.MemFrac)
			}
			if tk.Class == "" {
				return fmt.Errorf("task: workload %q batch %d task %d has empty class", w.Name, bi, ti)
			}
		}
	}
	return nil
}

// ClassSpec describes one task class in a synthetic workload: Count
// tasks per batch named Name, with per-task work jittered around
// MeanWork by ±JitterFrac (relative) each batch. This encodes the
// paper's core assumption that "task workloads of different iterations
// have similar patterns" while still varying between iterations.
type ClassSpec struct {
	Name               string
	Count              int
	MeanWork           float64 // seconds at F0
	JitterFrac         float64 // relative jitter per task, e.g. 0.05
	MemFrac            float64
	CacheMissIntensity float64
}

// Generate builds a deterministic synthetic workload of `batches`
// batches from the class specs, shuffling task order within each batch
// (spawn order is program-dependent in real Cilk programs, and the
// scheduler must not rely on it).
func Generate(name string, batches int, specs []ClassSpec, seed uint64) (*Workload, error) {
	if batches <= 0 {
		return nil, fmt.Errorf("task: need at least one batch, got %d", batches)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("task: need at least one class spec")
	}
	for _, s := range specs {
		if s.Count <= 0 || s.MeanWork <= 0 {
			return nil, fmt.Errorf("task: class %q needs positive count and work", s.Name)
		}
		if s.JitterFrac < 0 || s.JitterFrac >= 1 {
			return nil, fmt.Errorf("task: class %q jitter %g outside [0,1)", s.Name, s.JitterFrac)
		}
	}
	rng := xrand.New(seed)
	w := &Workload{Name: name, Batches: make([]Batch, batches)}
	id := 0
	for bi := 0; bi < batches; bi++ {
		var tasks []Task
		for _, s := range specs {
			for i := 0; i < s.Count; i++ {
				tasks = append(tasks, Task{
					ID:                 id,
					Class:              s.Name,
					Work:               rng.Jitter(s.MeanWork, s.JitterFrac),
					MemFrac:            s.MemFrac,
					CacheMissIntensity: s.CacheMissIntensity,
				})
				id++
			}
		}
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		w.Batches[bi] = Batch{Tasks: tasks}
	}
	return w, nil
}

// MustGenerate is Generate for static, known-good specs (presets);
// it panics on error.
func MustGenerate(name string, batches int, specs []ClassSpec, seed uint64) *Workload {
	w, err := Generate(name, batches, specs, seed)
	if err != nil {
		panic(err)
	}
	return w
}
