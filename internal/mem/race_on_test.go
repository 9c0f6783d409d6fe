//go:build race

package mem

// raceEnabled reports whether the race detector is compiled in; allocation
// budgets are skipped under it (instrumentation allocates).
const raceEnabled = true
