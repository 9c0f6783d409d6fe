//go:build lockdebug

package rfs_test

// lockDebugEnabled reports whether the lock-order assertions are compiled
// in; allocation budgets are skipped under them (the per-goroutine held-rank
// bookkeeping allocates on every acquire).
const lockDebugEnabled = true
