// Package memmodel implements the paper's stated future work (§IV-D):
// extending EEWA to memory-bound applications by measuring each task
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
// observations over-determine them and we fit least squares. A fitted
// class is an ordinary profile.Class with AvgWork a+b and MemFrac
// a/(a+b), so the CC table is built by cctable's one builder, exactly
// as for a CPU-bound class.
//
// EEWA's memory-aware mode (the policy eewa-memaware) therefore:
//
//  1. runs batch 0 at F0 (as always — this defines T and provides the
//     first sample point),
//  2. when the first batch classifies the application memory-bound,
//     runs one *calibration batch* with every core at a lower level
//     (classic stealing, so classes spread over it), providing the
//     second sample point,
//  3. from batch 2 on, adjusts from the fitted classes (FitAll) exactly
//     as CPU-bound EEWA adjusts from the profiled ones.
//
// The paper proposed machine learning for this step; a two-point
// linear fit is the minimal model that is exact for the standard
// stall/compute decomposition (and for this repository's task model,
// TimeAt = Work·(MemFrac + (1−MemFrac)·ratio)).
package memmodel

import (
	"cmp"
	"slices"

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

// FitAll fits every class in classes (the profiler's current view) and
// returns them as fitted classes: AvgWork is the modeled F0 time a+b,
// MemFrac its share a/(a+b), MaxWork (a+b) times the class's observed
// max/avg inflation, Count carried over. The result is sorted by
// descending AvgWork, ties in input order, as the CC table requires.
// ok=false means some class lacks a second frequency sample and a
// calibration batch is still needed.
func FitAll(p *profile.Profiler, classes []profile.Class, ladder machine.FreqLadder) ([]profile.Class, bool) {
	out := make([]profile.Class, 0, len(classes))
	for _, c := range classes {
		m, ok := Fit(p, c.Name, ladder)
		if !ok {
			return nil, false
		}
		t0 := m.A + m.B
		f := profile.Class{Name: c.Name, Count: c.Count, AvgWork: t0, MaxWork: t0}
		if t0 > 0 {
			f.MemFrac = m.A / t0
		}
		if c.AvgWork > 0 && c.MaxWork > c.AvgWork {
			f.MaxWork = t0 * (c.MaxWork / c.AvgWork)
		}
		out = append(out, f)
	}
	slices.SortStableFunc(out, func(x, y profile.Class) int { return cmp.Compare(y.AvgWork, x.AvgWork) })
	return out, true
}
