package repro_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
)

const perfSpin = "loop:\tjmp loop\n"

const perfMill = `
loop:	movi r0, SYS_getpid
	syscall
	jmp loop
`

func spawnPerf(t *testing.T, s *repro.System, name, src string) *kernel.Proc {
	t.Helper()
	p, err := s.SpawnProg(name, src, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSMPStepAllocBudget pins the steady-state allocation cost of one SMP
// scheduling pass. With incrementally maintained run queues (enqueue on
// wakeup, lazy dequeue) and persistent per-CPU workers, a pass over a
// stable fleet allocates nothing; the budget of 2 leaves headroom for
// incidental runtime allocations. A regression here means the per-pass
// queue rebuild or the per-pass goroutine spawn has come back.
func TestSMPStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	if lockDebugEnabled {
		t.Skip("lock-order assertions allocate on every acquire")
	}
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("ncpu=%d", n), func(t *testing.T) {
			s := repro.NewSystem(repro.Options{NCPU: n})
			defer s.Close()
			for i := 0; i < 32; i++ {
				spawnPerf(t, s, fmt.Sprintf("spin%d", i), perfSpin)
			}
			s.Run(100) // workers started, queues populated, ktrace warm
			allocs := testing.AllocsPerRun(200, func() { s.Step() })
			if allocs > 2 {
				t.Errorf("ncpu=%d: %.1f allocs per pass, budget 2", n, allocs)
			}
		})
	}
}

// perfBrkMill is the brk half of the proc_mill benchmark program: grow the
// break by a page, store to the fresh page (a zero-fill fault), shrink the
// break back, and count the iteration in memory. Every step of the loop
// moves the address-space generation, so every iteration drops the TLB and
// refills the text page three times.
const perfBrkMill = `
	la r6, heap
	addi r6, 4095
	li r3, 0xFFFFF000
	and r6, r3		; r6 = the first page at or above the break base
	la r4, count
loop:	movi r0, SYS_brk
	mov r1, r6
	addi r1, 4096
	syscall			; grow the break by one page
	st r4, [r6]		; a store to the fresh page
	movi r0, SYS_brk
	mov r1, r6
	syscall			; shrink it back, dropping the page
	ld r5, [r4]
	addi r5, 1
	st r5, [r4]
	jmp loop
.data
.align 4
count:	.word 0
.bss
heap:	.space 4
`

// TestBrkMillAllocBudget pins the allocation cost of the brk mill at NCPU=1:
// per iteration, the page the store materializes plus a small constant. A
// TLB refill at an unchanged object revision must not allocate — the text
// of a program shorter than a page is served from the file's zeroed slack,
// not copied on each of the three refills an iteration causes.
func TestBrkMillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	if lockDebugEnabled {
		t.Skip("lock-order assertions allocate on every acquire")
	}
	s := repro.NewSystem(repro.Options{NCPU: 1})
	defer s.Close()
	p := spawnPerf(t, s, "brkmill", perfBrkMill)
	var data *mem.Seg
	for _, seg := range p.AS.SegsView() {
		if seg.Kind == mem.KindData {
			data = seg
		}
	}
	if data == nil {
		t.Fatal("no data segment")
	}
	count := func() uint32 {
		var b [4]byte
		if _, err := p.AS.ReadAt(b[:], int64(data.Base)); err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint32(b[:])
	}
	s.Run(100) // ktrace warm, the loop running

	var before, after runtime.MemStats
	n0 := count()
	runtime.ReadMemStats(&before)
	s.Run(500)
	runtime.ReadMemStats(&after)
	iters := float64(count() - n0)
	if iters < 100 {
		t.Fatalf("only %.0f iterations in 500 passes", iters)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / iters
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / iters
	t.Logf("%.0f iterations: %.2f allocs, %.0f bytes per iteration", iters, allocs, bytes)
	if allocs > 1.5 || bytes > 4096+512 {
		t.Errorf("%.2f allocs and %.0f bytes per iteration, budget 1.5 and %d (one page plus a small constant)",
			allocs, bytes, 4096+512)
	}
}

// TestSMPMutexContentionSmoke checks the tentpole claim of the fine-grained
// locking rework with the runtime's own evidence: under a syscall-heavy SMP
// load, the global kernel lock must no longer dominate mutex wait time. The
// getpid mill dispatches through the lock-free syscall class, accounting
// flushes under per-process locks, and the global lock is left with the
// narrow fork/exit/timer work — so its share of sampled contention stays
// under budget. Before this rework every syscall serialized on one lock and
// the share was, by construction, close to 100%.
func TestSMPMutexContentionSmoke(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	s := repro.NewSystem(repro.Options{NCPU: 4})
	defer s.Close()
	for i := 0; i < 12; i++ {
		spawnPerf(t, s, fmt.Sprintf("mill%d", i), perfMill)
	}
	for i := 0; i < 20000; i++ {
		s.Step()
	}

	var recs []runtime.BlockProfileRecord
	for sz := 64; ; sz *= 2 {
		recs = make([]runtime.BlockProfileRecord, sz)
		n, ok := runtime.MutexProfile(recs)
		if ok {
			recs = recs[:n]
			break
		}
	}
	var total, global, events int64
	for _, r := range recs {
		isGlobal := false
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if strings.Contains(fr.Function, "GlobalLock") ||
				strings.Contains(fr.Function, "GlobalUnlock") {
				isGlobal = true
			}
			if !more {
				break
			}
		}
		total += r.Cycles
		events += r.Count
		if isGlobal {
			global += r.Cycles
		}
	}
	if total == 0 {
		t.Logf("no mutex contention sampled across %d records — nothing waits", len(recs))
		return
	}
	share := float64(global) / float64(total)
	t.Logf("mutex contention: %d events sampled, global-lock wait share %.1f%%", events, share*100)
	// Assert only on a meaningful sample; a couple of stray events would
	// make the ratio noise.
	if events >= 10 && share > 0.90 {
		t.Errorf("global kernel lock accounts for %.1f%% of mutex wait (budget 90%%): the big kernel lock is back", share*100)
	}
}
