package kernel

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// heldSelfSignal blocks SIGUSR1, sends it to itself and spins, counting
// iterations in r7: the signal stays pending and held.
var heldSelfSignal = fmt.Sprintf(`
	movi r0, SYS_sigprocmask
	movi r1, 1		; SIG_BLOCK
	movi r2, %#x
	movi r3, 0
	syscall
	movi r0, SYS_getpid
	syscall
	mov r1, r0
	movi r0, SYS_kill
	movi r2, SIGUSR1
	syscall
spin:	addi r7, 1
	jmp spin
`, uint32(1)<<(types.SIGUSR1-1))

// TestHeldSignalClearsIntr pins that a pending signal every LWP holds does
// not keep the interrupt nudge raised: otherwise every user instruction
// takes the global lock and runs issig for nothing, and each user batch is
// one instruction long. Unmasking it, as PIOCSHOLD does between passes,
// raises the nudge again, and the signal is received at the very next
// instruction boundary: with SIGUSR1 traced, the LWP stops on receipt
// before it retires another instruction.
func TestHeldSignalClearsIntr(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			fs := memfs.New(nil)
			k := New(vfs.NewNS(fs.Root()), Config{NCPU: ncpu})
			defer k.Shutdown()
			img, err := asm.Assemble(heldSelfSignal, &asm.Options{Predef: Predefs()})
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/held", img.Marshal(), 0o755, 0, 0); err != nil {
				t.Fatal(err)
			}
			p, err := k.Spawn("/held", nil, types.UserCred(100, 10), nil)
			if err != nil {
				t.Fatal(err)
			}
			l := p.LWPs[0]
			if err := k.RunUntil(func() bool { return l.CPU.Regs.R[7] > 0 }, 100); err != nil {
				t.Fatal(err)
			}
			k.Step() // one pass spinning with SIGUSR1 held and pending
			if got := p.intr.Load(); got != 0 {
				t.Fatalf("intr = %d after a pass with only a held signal pending, want 0", got)
			}
			if !p.SigPend.Has(types.SIGUSR1) {
				t.Fatal("the held SIGUSR1 is no longer pending")
			}

			k.GlobalLock()
			p.Lock()
			p.Trace.Sigs.Add(types.SIGUSR1)
			l.SetHold(types.SigSet{})
			p.Unlock()
			k.GlobalUnlock()
			if got := p.intr.Load(); got == 0 {
				t.Fatal("unmasking a pending signal left intr clear")
			}
			instret := l.CPU.Instret
			k.Step()
			why, what := l.Why()
			if !l.Stopped() || why != WhySignalled || what != types.SIGUSR1 {
				t.Fatalf("after unmasking: stopped=%v why=%v what=%d, want a signalled stop on SIGUSR1", l.Stopped(), why, what)
			}
			if l.CPU.Instret != instret {
				t.Fatalf("%d instructions retired between the unmask and receipt, want 0", l.CPU.Instret-instret)
			}
		})
	}
}
