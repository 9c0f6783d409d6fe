package kernel

import (
	"fmt"
	"testing"

	"repro/internal/ktrace"
	"repro/internal/vfs"
)

// Regression test: a quantum that never runs anything must not be billed.
// The phase machine used to charge InvolCtx and emit a ktSchedTick
// unconditionally on loop exit, so an LWP handed an exhausted (or zero)
// budget — which cannot have held the CPU — was charged for an involuntary
// context switch and polluted the trace stream with scheduling ticks. Both
// widths run the same machine; each is checked on its first CPU.
func TestRunLWPNoChargeWhenNothingRan(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			k := New(vfs.NewNS(nil), Config{NCPU: ncpu})
			defer k.Shutdown()
			w := k.cpus[0]
			p := &Proc{k: k, Pid: 99, procState: procState{Comm: "t"}, fds: map[int]*vfs.File{}}
			k.addProc(p)
			l := p.newLWP()
			p.KT = ktrace.NewRing(64) // make ktEnabled true so a tick would be recorded

			if ran := k.runLWPOn(w, l, 0); ran {
				t.Fatal("zero-budget quantum reported progress")
			}
			if got := p.Usage.InvolCtx; got != 0 {
				t.Fatalf("zero-budget quantum charged InvolCtx = %d, want 0", got)
			}
			if n := p.KT.Len(); n != 0 {
				t.Fatalf("zero-budget quantum emitted %d trace events, want 0", n)
			}

			// A gated LWP (asleep the whole quantum) is equally not billed.
			// Sleeping takes the global lock, as the sleeper lists require.
			k.GlobalLock()
			l.sleep(new(waitq))
			k.GlobalUnlock()
			base := p.KT.Len() // the sleep's own state-change event
			if ran := k.runLWPOn(w, l, 5); ran {
				t.Fatal("sleeping quantum reported progress")
			}
			if got := p.Usage.InvolCtx; got != 0 {
				t.Fatalf("sleeping quantum charged InvolCtx = %d, want 0", got)
			}
			if n := p.KT.Len() - base; n != 0 {
				t.Fatalf("sleeping quantum emitted %d trace events, want 0", n)
			}
		})
	}
}
