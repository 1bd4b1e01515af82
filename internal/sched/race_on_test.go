//go:build race

package sched

// raceEnabled: under the race detector slices.Grow makes its new array
// in two allocations, so allocation budgets do not hold (equal counts
// still do).
const raceEnabled = true
