package kernel

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// TestRunQueueChurn forks and reaps children beside a population parked in
// pause(2), at both widths: the invariants hold after every tenth of 2000
// passes, and at the end no run queue holds more members than there are
// live non-system processes. A reaped process left on its queue fails both:
// the invariant check names it, and such entries pile up in gaps of the
// table that no search starts below.
func TestRunQueueChurn(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			fs := memfs.New(nil)
			k := New(vfs.NewNS(fs.Root()), Config{NCPU: ncpu})
			defer k.Shutdown()
			for path, src := range map[string]string{
				"/pause": "\tmovi r0, SYS_pause\n\tsyscall\n",
				"/churn": `
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
`,
			} {
				img, err := asm.Assemble(src, &asm.Options{Predef: Predefs()})
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(path, img.Marshal(), 0o755, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 108; i++ {
				path := "/pause"
				if i >= 100 {
					path = "/churn"
				}
				if _, err := k.Spawn(path, nil, types.UserCred(100, 10), nil); err != nil {
					t.Fatal(err)
				}
			}
			first := k.nextPid
			for i := 0; i < 2000; i++ {
				k.Step()
				if i%10 == 9 {
					if err := k.CheckInvariants(); err != nil {
						t.Fatalf("pass %d: %v", i, err)
					}
				}
			}
			if forks := k.nextPid - first; forks < 1000 {
				t.Fatalf("the churners forked only %d children", forks)
			}
			live := 0
			for _, p := range k.Procs() {
				if p.Alive() && !p.System {
					live++
				}
			}
			for i := range k.queues {
				if n := len(k.queues[i].procs); n > live {
					t.Fatalf("run queue %d holds %d members, but only %d processes are live", i, n, live)
				}
			}
		})
	}
}
