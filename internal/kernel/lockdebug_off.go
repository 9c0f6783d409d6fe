//go:build !lockdebug

package kernel

// Lock ranks in acquisition order. A goroutine must take locks in strictly
// increasing rank, with one sanctioned exception: a holder of the global
// kernel lock (rankGlobal) may take any number of per-process locks
// (rankProc) one at a time — that is the only way to hold two process
// locks' worth of state (e.g. signalling every member of a process group).
// See the hierarchy comment on Kernel.global in kernel.go.
const (
	rankGlobal = 1 // Kernel.global
	rankProc   = 2 // Proc.mu
	rankLWPs   = 3 // Kernel.lwpsMu
	rankQueue  = 4 // runQueue.mu
)

// In normal builds the lock-order checker compiles to nothing.
func lockOrderAcquire(rank int) {}
func lockOrderRelease(rank int) {}

// assertGlobal checks, in lockdebug builds, that an SMP caller holds the
// global lock: sleeper lists and /proc operations require it.
func (k *Kernel) assertGlobal() {}

// assertBatchGate checks, in lockdebug builds, the batch invariant of
// runLWPOn: an LWP that stopped running during a user batch had its
// process's intr raised.
func assertBatchGate(l *LWP) {}
