//go:build lockdebug

package kernel

import "testing"

// These tests only exist in the lockdebug build (go test -tags lockdebug):
// they verify that the lock-order checker admits the documented hierarchy
// and panics on the violations it is meant to catch. The rest of the kernel
// suite running under the same tag checks that no legitimate code path
// trips an assertion.

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a lock-order panic", name)
		}
	}()
	fn()
}

func TestLockOrderHierarchy(t *testing.T) {
	// Strictly increasing rank is always legal.
	lockOrderAcquire(rankGlobal)
	lockOrderAcquire(rankProc)
	lockOrderAcquire(rankLWPs)
	lockOrderAcquire(rankQueue)
	lockOrderRelease(rankQueue)
	lockOrderRelease(rankLWPs)
	lockOrderRelease(rankProc)
	lockOrderRelease(rankGlobal)

	// The sanctioned exception: the global holder may take process locks
	// one at a time, even after holding a higher rank in between.
	lockOrderAcquire(rankGlobal)
	lockOrderAcquire(rankProc)
	lockOrderRelease(rankProc)
	lockOrderAcquire(rankProc) // re-acquire a (different) process lock
	lockOrderRelease(rankProc)
	lockOrderRelease(rankGlobal)
}

func TestLockOrderViolations(t *testing.T) {
	// Taking the global lock above a higher rank is a deadlock in waiting.
	lockOrderAcquire(rankQueue)
	mustPanic(t, "queue→global", func() { lockOrderAcquire(rankGlobal) })
	lockOrderRelease(rankQueue)

	// Two process locks at once violates the single-target rule even for
	// the global holder.
	lockOrderAcquire(rankGlobal)
	lockOrderAcquire(rankProc)
	mustPanic(t, "proc→proc", func() { lockOrderAcquire(rankProc) })
	lockOrderRelease(rankProc)
	lockOrderRelease(rankGlobal)

	// A bare process-lock holder may not reach back down to the global.
	lockOrderAcquire(rankProc)
	mustPanic(t, "proc→global", func() { lockOrderAcquire(rankGlobal) })
	lockOrderRelease(rankProc)

	// Releasing a rank that is not held is a bookkeeping bug.
	mustPanic(t, "release-unheld", func() { lockOrderRelease(rankLWPs) })
}
