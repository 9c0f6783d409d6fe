package workload

import (
	"runtime"
	"testing"
	"time"
)

// TestWorkloadSMPSmoke runs every scenario on the SMP scheduler at NCPU=4
// and checks two things the deterministic smoke cannot: the scenarios
// complete correctly when scheduling passes fan out to the persistent
// worker goroutines (make verify-smp runs this under the race detector),
// and Close retires the workers so the goroutine count returns to its
// baseline. The work-stealing stampede has its own guard in the kernel
// (TestStealSkipsEmptyVictim).
func TestWorkloadSMPSmoke(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(name)
			cfg.NCPU = 4
			ops, s, err := Run(name, cfg)
			if s != nil {
				defer s.Close()
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := s.K.NCPU(); got != 4 {
				t.Fatalf("NCPU() = %d, want 4", got)
			}
			if ops == 0 {
				t.Fatal("no operations ran")
			}
		})
	}
	// Every system was closed; nothing may linger. Allow the runtime a
	// moment to retire already-finished goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutine leak: %d running, baseline %d", got, base)
	}
}
