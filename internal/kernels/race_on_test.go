//go:build race

package kernels

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so budgets on the pooled wrappers do not hold.
const raceEnabled = true
