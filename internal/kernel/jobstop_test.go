package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/types"
)

// Waiting for a directed stop on a job-stopped process cannot complete until
// SIGCONT; the kernel diagnoses the situation instead of spinning.
func TestWaitStopDiagnosesJobStop(t *testing.T) {
	f := boot(t)
	p := f.spawn("parked", spinForever, user())
	f.K.Run(3)
	f.K.PostSignal(p, types.SIGSTOP)
	f.K.Run(5)
	f.stopAll(p)
	if _, err := f.K.WaitStop(p, 100000); err != kernel.ErrJobStopped {
		t.Fatalf("err = %v, want ErrJobStopped", err)
	}
	// SIGCONT releases it; the directed stop then takes effect.
	f.K.PostSignal(p, types.SIGCONT)
	l, err := f.K.WaitStop(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if why, _ := l.Why(); why != kernel.WhyRequested {
		t.Fatalf("why = %v", why)
	}
	f.K.RunLWP(l, kernel.RunFlags{})
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}
