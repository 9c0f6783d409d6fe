package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/types"
)

// progParked idles in pause(2) forever, like the parked population of a
// remote ps sweep.
const progParked = `
loop:	movi r0, SYS_pause
	syscall
	jmp loop
`

// progForkMill forks a child that exits at once and reaps it, forever.
const progForkMill = `
loop:	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:	movi r0, SYS_wait
	movi r1, 0
	syscall
	jmp loop
`

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// parkedBudget is the live heap one parked process may cost: about twice
// the measured 2.1 KB. An idle process holds its proc and LWP records, its
// descriptor table and its address space's mappings. It holds no TLB entry
// array (given back when it slept), shares its signal table (nil: all
// default) and shares the zero-padded last page of its text with every
// other mapping of the file. Before those three it cost about 13 KB.
const parkedBudget = 4 << 10

// TestParkedProcessFootprint pins the memory an idle process costs: the
// live heap after a collection, per process, for 1000 processes parked in
// pause(2), at one and two CPUs.
func TestParkedProcessFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	const n = 1000
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			s := repro.NewSystem(repro.Options{NCPU: ncpu})
			defer s.Close()
			if err := s.Install("/bin/parked", progParked, 0o755, 0, 0); err != nil {
				t.Fatal(err)
			}
			procs := make([]*kernel.Proc, 0, n)
			s.Run(10)
			before := liveHeap()
			for i := 0; i < n; i++ {
				p, err := s.Spawn("/bin/parked", []string{fmt.Sprintf("parked%d", i)}, types.UserCred(100+i%16, 10))
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, p)
			}
			if err := s.RunUntil(func() bool {
				for _, p := range procs {
					if !p.LWPs[0].Asleep() {
						return false
					}
				}
				return true
			}, 100*n); err != nil {
				t.Fatal(err)
			}
			per := (liveHeap() - before) / n
			runtime.KeepAlive(procs)
			t.Logf("ncpu=%d: %d bytes of live heap per parked process", ncpu, per)
			if per > parkedBudget {
				t.Errorf("ncpu=%d: a parked process costs %d bytes of live heap, budget %d", ncpu, per, parkedBudget)
			}
		})
	}
}

// forkBudget is what one fork, exit and reap may allocate at NCPU=1: about
// twice the measured 2.1 KB. The child shares its parent's signal table,
// and its TLB entry array comes from the free list its predecessors gave
// back; copying both cost about 7 KB more.
const forkBudget = 4 << 10

// TestForkAllocBudget pins the bytes one fork-exit-wait round allocates.
func TestForkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	if lockDebugEnabled {
		t.Skip("lock-order assertions allocate on every acquire")
	}
	s := repro.NewSystem(repro.Options{NCPU: 1})
	defer s.Close()
	p := spawnPerf(t, s, "forkmill", progForkMill)
	s.Run(200) // warm: free lists filled, ktrace and queues sized
	const forks = 500
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	kids0 := p.Usage.ForkedKids
	if err := s.RunUntil(func() bool { return p.Usage.ForkedKids >= kids0+forks }, 100*forks); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	per := int64(ms1.TotalAlloc-ms0.TotalAlloc) / (p.Usage.ForkedKids - kids0)
	t.Logf("%d bytes allocated per fork", per)
	if per > forkBudget {
		t.Errorf("a fork allocates %d bytes, budget %d", per, forkBudget)
	}
}
