//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so budgets on pooled paths do not hold.
const raceEnabled = true
