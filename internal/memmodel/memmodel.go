// Package memmodel implements the paper's stated future work (§IV-D):
// extending EEWA to memory-bound applications by learning each task
// class's frequency response instead of assuming pure CPU-bound
// scaling.
//
// The CC table (Table I) assumes a task's execution time scales as
// F0/Fj. Memory-bound tasks violate that: the memory-stall portion of
// their runtime is frequency-insensitive. To first order a task's time
// at frequency level j is
//
//	t(j) = a + b · (F0/Fj)
//
// where a is the frequency-insensitive (memory) component and b the
// frequency-scaled (compute) component. Two observations of a class at
// *different* frequency levels determine (a, b) exactly; more
// observations over-determine them and we fit least squares.
//
// EEWA's memory-aware mode (policy.EEWA with MemAware=true) therefore:
//
//  1. runs batch 0 at F0 (as always — this defines T and provides the
//     first sample point),
//  2. when the first batch classifies the application memory-bound,
//     runs one *calibration batch* with every core at a lower level
//     (classic stealing, so classes spread over it), providing the
//     second sample point,
//  3. from batch 2 on, builds the CC table from the fitted models via
//     BuildTable and schedules exactly as CPU-bound EEWA does.
//
// The paper proposed machine learning for this step; a two-point
// linear fit is the minimal model that is exact for the standard
// stall/compute decomposition (and for this repository's task model,
// TimeAt = Work·(MemFrac + (1−MemFrac)·ratio)).
package memmodel

import (
	"fmt"
	"math"

	"repro/internal/cctable"
	"repro/internal/machine"
	"repro/internal/profile"
)

// Model is one class's fitted frequency response t(ratio) = A + B·ratio
// with ratio = F0/Fj ≥ 1.
type Model struct {
	Name string
	// A is the frequency-insensitive seconds per task (memory stalls).
	A float64
	// B is the frequency-scaled seconds per task at F0 (compute).
	B float64
	// Count is the number of tasks per batch observed for the class.
	Count int
	// MaxRatio is the largest single-task inflation seen relative to
	// the class average (≥ 1), used for the granularity bar.
	MaxRatio float64
}

// TimeAt returns the modeled per-task execution time at a ladder ratio.
func (m Model) TimeAt(ratio float64) float64 { return m.A + m.B*ratio }

// MemFraction returns the modeled memory-bound share of the task's
// time at F0 — a/(a+b).
func (m Model) MemFraction() float64 {
	t0 := m.A + m.B
	if t0 <= 0 {
		return 0
	}
	return m.A / t0
}

// Fit determines a class's (A, B) by least squares over the profiler's
// raw per-level averages. It needs samples at two or more distinct
// levels; with fewer it returns ok=false (the caller should schedule a
// calibration batch).
func Fit(p *profile.Profiler, name string, ladder machine.FreqLadder) (Model, bool) {
	levels := p.RawLevels(name)
	if len(levels) < 2 {
		return Model{}, false
	}
	// Least squares of t over x = ratio.
	var n, sx, sy, sxx, sxy float64
	for _, lvl := range levels {
		t, ok := p.RawAvg(name, lvl)
		if !ok {
			continue
		}
		x := ladder.Ratio(lvl)
		n++
		sx += x
		sy += t
		sxx += x * x
		sxy += x * t
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Model{}, false
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	// Clamp to the physical region: negative components are jitter
	// artifacts on nearly pure CPU- or memory-bound classes.
	if a < 0 {
		a = 0
		// Recompute b as the pure-scaling slope through the samples.
		if sxx > 0 {
			b = sxy / sxx
		}
	}
	if b < 0 {
		b = 0
		a = sy / n
	}
	return Model{Name: name, A: a, B: b}, true
}

// FitAll fits every class the profiler has seen, attaching per-batch
// counts and the max/avg inflation from the normalized class view.
// Classes lacking a second frequency sample are skipped (ok=false
// overall signals a calibration batch is still needed).
func FitAll(p *profile.Profiler, classes []profile.Class, ladder machine.FreqLadder) ([]Model, bool) {
	out := make([]Model, 0, len(classes))
	for _, c := range classes {
		m, ok := Fit(p, c.Name, ladder)
		if !ok {
			return nil, false
		}
		m.Count = c.Count
		m.MaxRatio = 1
		if c.AvgWork > 0 && c.MaxWork > c.AvgWork {
			m.MaxRatio = c.MaxWork / c.AvgWork
		}
		out = append(out, m)
	}
	return out, true
}

// BuildTable constructs a granularity-aware CC table from fitted
// models: entry [j][i] is the number of cores at level j needed so
// class i's n tasks of modeled time t(ratio_j) finish within T.
func BuildTable(models []Model, ladder machine.FreqLadder, T float64, maxCores int) (*cctable.Table, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("memmodel: no models")
	}
	if T <= 0 || math.IsNaN(T) || math.IsInf(T, 0) {
		return nil, fmt.Errorf("memmodel: invalid ideal time %g", T)
	}
	if maxCores <= 0 {
		return nil, fmt.Errorf("memmodel: invalid core count %d", maxCores)
	}
	// Express the models as pseudo-classes so the table carries the
	// usual metadata (sorted by descending F0 workload).
	classes := make([]profile.Class, len(models))
	for i, m := range models {
		classes[i] = profile.Class{
			Name:    m.Name,
			Count:   m.Count,
			AvgWork: m.TimeAt(1),
			MaxWork: m.TimeAt(1) * m.MaxRatio,
		}
	}
	for i := 1; i < len(classes); i++ {
		if classes[i].AvgWork > classes[i-1].AvgWork {
			return nil, fmt.Errorf("memmodel: models not sorted by descending F0 time at %d", i)
		}
	}
	r, k := len(ladder), len(models)
	t := &cctable.Table{
		CC:      make([][]int, r),
		Frac:    make([][]float64, r),
		Classes: classes,
		Ladder:  ladder,
		T:       T,
	}
	sentinel := maxCores*r + 1
	for j := 0; j < r; j++ {
		t.CC[j] = make([]int, k)
		t.Frac[j] = make([]float64, k)
		ratio := ladder.Ratio(j)
		for i, m := range models {
			perTask := m.TimeAt(ratio)
			frac := float64(m.Count) * perTask / T
			t.Frac[j][i] = frac
			rounds := int(math.Floor(T/perTask + 1e-9))
			biggest := perTask * m.MaxRatio
			if rounds <= 0 || biggest > T*(1+1e-9) {
				t.CC[j][i] = sentinel
				continue
			}
			cc := int(math.Ceil(frac - 1e-9))
			granular := (m.Count + rounds - 1) / rounds
			if granular > cc {
				cc = granular
			}
			if cc < 1 {
				cc = 1
			}
			t.CC[j][i] = cc
		}
	}
	return t, nil
}
