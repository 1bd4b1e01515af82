package task

import "math"

// SoA is the struct-of-arrays view of one batch: parallel arrays
// indexed by a compact int32 task index, plus a per-batch class-id
// table. The simulator's hot path works exclusively on these arrays —
// task indices flow through the pools instead of *Task pointers, so
// the per-task working set is a few contiguous float64 reads instead
// of a pointer chase, and nothing per-task is allocated.
//
// A SoA is a reusable slab: Fill truncates and repopulates the arrays
// in place, appending within their capacity, so one SoA serves every
// batch of a run, and a caller that sizes the arrays for its largest
// batch (the simulator carves them from its run's slabs) has Fill
// allocate only for the class table.
type SoA struct {
	// ClassID[i] is task i's class id — an index into Classes.
	ClassID []int32
	// Work[i] is task i's execution time in seconds at F0.
	Work []float64
	// MemFrac[i] is the frequency-insensitive fraction of Work[i].
	MemFrac []float64
	// Miss[i] is task i's modeled cache-miss intensity.
	Miss []float64
	// Classes maps class id → class name, in first-appearance order
	// within the batch.
	Classes []string

	ids map[string]int32
}

// Len returns the number of tasks in the filled batch.
func (s *SoA) Len() int { return len(s.ClassID) }

// Fill repopulates the arrays from b, reusing existing capacity.
func (s *SoA) Fill(b *Batch) {
	if len(b.Tasks) > math.MaxInt32 {
		panic("task: batch exceeds int32 index space")
	}
	s.ClassID = s.ClassID[:0]
	s.Work = s.Work[:0]
	s.MemFrac = s.MemFrac[:0]
	s.Miss = s.Miss[:0]
	s.Classes = s.Classes[:0]
	if s.ids == nil {
		s.ids = make(map[string]int32)
	} else {
		clear(s.ids)
	}
	// lastName/lastID short-circuit the common case of runs of tasks
	// sharing a class: same-class names within a batch usually share
	// string backing, so == is a pointer compare, skipping the map hash.
	lastName, lastID := "", int32(-1)
	for i := range b.Tasks {
		t := &b.Tasks[i]
		id := lastID
		if t.Class != lastName {
			var ok bool
			id, ok = s.ids[t.Class]
			if !ok {
				id = int32(len(s.Classes))
				s.Classes = append(s.Classes, t.Class)
				s.ids[t.Class] = id
			}
			lastName, lastID = t.Class, id
		}
		s.ClassID = append(s.ClassID, id)
		s.Work = append(s.Work, t.Work)
		s.MemFrac = append(s.MemFrac, t.MemFrac)
		s.Miss = append(s.Miss, t.CacheMissIntensity)
	}
}

// TimeAt returns task i's execution time at frequency ratio F0/Fj:
// Work·(MemFrac + (1−MemFrac)·ratio), the package's time model.
func (s *SoA) TimeAt(i int32, ratio float64) float64 {
	mf := s.MemFrac[i]
	return s.Work[i] * (mf + (1-mf)*ratio)
}
