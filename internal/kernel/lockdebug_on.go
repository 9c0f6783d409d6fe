//go:build lockdebug

package kernel

import (
	"fmt"
	"runtime"
	"sync"
)

// Lock ranks in acquisition order; see lockdebug_off.go for the canonical
// ordering rules. This build tracks, per goroutine, the multiset of held
// ranks and panics the moment a lock is taken out of order, turning a
// would-be deadlock into a stack trace at the offending acquisition site.
const (
	rankGlobal = 1 // Kernel.global
	rankProc   = 2 // Proc.mu
	rankLWPs   = 3 // Kernel.lwpsMu
	rankQueue  = 4 // runQueue.mu
)

var lockDebug struct {
	mu   sync.Mutex
	held map[uint64][]int // goroutine id -> stack of held ranks
}

func init() { lockDebug.held = map[uint64][]int{} }

// goid extracts the current goroutine's id from the runtime stack header
// ("goroutine 123 [running]:"). Slow, but this is a debug-only build.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	// Skip "goroutine ".
	i := 0
	for i < len(s) && (s[i] < '0' || s[i] > '9') {
		i++
	}
	var id uint64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		id = id*10 + uint64(s[i]-'0')
		i++
	}
	return id
}

func lockOrderAcquire(rank int) {
	g := goid()
	lockDebug.mu.Lock()
	defer lockDebug.mu.Unlock()
	held := lockDebug.held[g]
	for _, h := range held {
		if rank > h {
			continue
		}
		// Sanctioned exception: the global-lock holder may take per-process
		// locks one at a time, including re-ranking down from a previously
		// released one; what it may never do is hold two rankProc locks at
		// once or re-enter the same rank it still holds.
		if rank == rankProc && h == rankGlobal && countRank(held, rankProc) == 0 {
			continue
		}
		panic(fmt.Sprintf("lockdebug: goroutine %d acquires rank %d while holding %v (out of order)", g, rank, held))
	}
	lockDebug.held[g] = append(held, rank)
}

func lockOrderRelease(rank int) {
	g := goid()
	lockDebug.mu.Lock()
	defer lockDebug.mu.Unlock()
	held := lockDebug.held[g]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == rank {
			held = append(held[:i], held[i+1:]...)
			if len(held) == 0 {
				delete(lockDebug.held, g)
			} else {
				lockDebug.held[g] = held
			}
			return
		}
	}
	panic(fmt.Sprintf("lockdebug: goroutine %d releases rank %d it does not hold (%v)", g, rank, held))
}

func countRank(held []int, rank int) int {
	n := 0
	for _, h := range held {
		if h == rank {
			n++
		}
	}
	return n
}

// assertGlobal panics if an SMP caller does not hold the global lock
// (NCPU=1 never takes it).
func (k *Kernel) assertGlobal() {
	lockDebug.mu.Lock()
	defer lockDebug.mu.Unlock()
	if k.smp != nil && countRank(lockDebug.held[goid()], rankGlobal) == 0 {
		panic("lockdebug: a sleeper list is touched without the global lock")
	}
}
