package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/types"
)

const spinForever = `
loop:	jmp loop
`

// sigHandlerProg installs a handler for SIGUSR1 that bumps a counter; the
// main loop exits once the counter reaches r5's target.
const sigHandlerProg = `
.entry main
handler:
	la r3, counter
	ld r4, [r3]
	addi r4, 1
	st r4, [r3]
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, handler
	syscall
loop:
	la r3, counter
	ld r4, [r3]
	cmpi r4, 1
	jne loop
	movi r0, SYS_exit
	movi r1, 55
	syscall
.data
counter: .word 0
`

func TestDefaultSignalTerminates(t *testing.T) {
	f := boot(t)
	p := f.spawn("spin", spinForever, user())
	f.K.Run(10)
	f.K.PostSignal(p, types.SIGTERM)
	status := f.runToExit(p)
	if ok, sig, core := kernel.WIfSignaled(status); !ok || sig != types.SIGTERM || core {
		t.Fatalf("status = %#x", status)
	}
}

func TestCoreDumpSignals(t *testing.T) {
	f := boot(t)
	p := f.spawn("spin2", spinForever, user())
	f.K.Run(10)
	f.K.PostSignal(p, types.SIGQUIT)
	status := f.runToExit(p)
	if ok, sig, core := kernel.WIfSignaled(status); !ok || sig != types.SIGQUIT || !core {
		t.Fatalf("status = %#x, want core dump", status)
	}
}

func TestSignalHandlerAndSigreturn(t *testing.T) {
	f := boot(t)
	p := f.spawn("handled", sigHandlerProg, user())
	f.K.Run(20) // let it install the handler
	f.K.PostSignal(p, types.SIGUSR1)
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 55 {
		t.Fatalf("status = %#x, want handled exit 55", status)
	}
}

func TestIgnoredSignalDiscarded(t *testing.T) {
	f := boot(t)
	p := f.spawn("ign", `
	movi r0, SYS_signal
	movi r1, SIGUSR1
	movi r2, 1		; SIG_IGN
	syscall
loop:	jmp loop
`, user())
	f.K.Run(20)
	f.K.PostSignal(p, types.SIGUSR1)
	f.K.Run(20)
	if !p.Alive() {
		t.Fatal("ignored signal killed the process")
	}
	if !p.SigPend.IsEmpty() {
		t.Fatal("ignored signal should be discarded at generation")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

func TestSIGKILLUnblockable(t *testing.T) {
	f := boot(t)
	// The program tries to block and ignore SIGKILL; both must fail.
	p := f.spawn("tough", `
	movi r0, SYS_signal
	movi r1, SIGKILL
	movi r2, 1
	syscall			; EINVAL
	mov r6, r0
	movi r0, SYS_sigprocmask
	movi r1, 3		; SETMASK
	movi r2, 0
	movhi r2, 0x100		; bit 40? actually set every bit below:
	syscall
loop:	jmp loop
`, user())
	f.K.Run(30)
	f.K.PostSignal(p, types.SIGKILL)
	status := f.runToExit(p)
	if ok, sig, _ := kernel.WIfSignaled(status); !ok || sig != types.SIGKILL {
		t.Fatalf("status = %#x", status)
	}
}

func TestSigprocmaskHoldsAndReleases(t *testing.T) {
	f := boot(t)
	// Block SIGUSR1, install handler, spin until a marker is set, then
	// unblock: the pending signal is delivered only after the unblock.
	p := f.spawn("masker", `
.entry main
handler:
	la r3, counter
	movi r4, 1
	st r4, [r3]
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, handler
	syscall
	movi r0, SYS_sigprocmask
	movi r1, 1		; BLOCK
	movi r2, 0x8000		; 1 << (SIGUSR1-1) = 1<<15
	movi r3, 0
	syscall
	movi r5, 300
spin:	addi r5, -1
	cmpi r5, 0
	jne spin
	la r3, counter		; handler must NOT have run yet
	ld r4, [r3]
	cmpi r4, 0
	jne bad
	movi r0, SYS_sigprocmask
	movi r1, 3		; SETMASK to empty: release
	movi r2, 0
	movi r3, 0
	syscall
wait:	la r3, counter
	ld r4, [r3]
	cmpi r4, 1
	jne wait
	movi r0, SYS_exit
	movi r1, 0
	syscall
bad:	movi r0, SYS_exit
	movi r1, 9
	syscall
.data
counter: .word 0
`, user())
	f.K.Run(30)
	f.K.PostSignal(p, types.SIGUSR1)
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x (9 = handler ran while blocked)", status)
	}
}

func TestAlarmPause(t *testing.T) {
	f := boot(t)
	p := f.spawn("alarmer", `
.entry main
handler:
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGALRM
	la r2, handler
	syscall
	movi r0, SYS_alarm
	movi r1, 100
	syscall
	movi r0, SYS_pause
	syscall			; EINTR when SIGALRM arrives
	mov r1, r0		; EINTR = 4
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != int(kernel.EINTR) {
		t.Fatalf("status = %#x, want pause -> EINTR", status)
	}
}

func TestJobControlStopAndContinue(t *testing.T) {
	f := boot(t)
	p := f.spawn("jc", spinForever, user())
	f.K.Run(5)
	f.K.PostSignal(p, types.SIGSTOP)
	f.K.Run(5)
	l := p.Rep()
	if !l.Stopped() {
		t.Fatal("SIGSTOP did not stop the process")
	}
	if why, what := l.Why(); why != kernel.WhyJobControl || what != types.SIGSTOP {
		t.Fatalf("why=%v what=%d", why, what)
	}
	if info := p.PSInfo(); info.State != 'T' {
		t.Fatalf("ps state = %c, want T", info.State)
	}
	// A /proc run directive cannot release a job-control stop...
	if err := f.K.RunLWP(l, kernel.RunFlags{}); err == nil {
		t.Fatal("RunLWP should fail: job-control stop is not a /proc stop")
	}
	// ...only SIGCONT can.
	f.K.PostSignal(p, types.SIGCONT)
	f.K.Run(5)
	if l.Stopped() {
		t.Fatal("SIGCONT did not resume the process")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

func TestSIGCONTDiscardsPendingStops(t *testing.T) {
	f := boot(t)
	p := f.spawn("jc2", spinForever, user())
	f.K.Run(5)
	// Stop it, then queue another stop signal while stopped, then CONT.
	f.K.PostSignal(p, types.SIGSTOP)
	f.K.Run(5)
	f.K.PostSignal(p, types.SIGTSTP)
	f.K.PostSignal(p, types.SIGCONT)
	f.K.Run(10)
	if p.Rep().Stopped() {
		t.Fatal("pending stop signal should have been discarded by SIGCONT")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

func TestStopSignalDiscardsPendingCont(t *testing.T) {
	f := boot(t)
	p := f.spawn("jc3", spinForever, user())
	f.K.Run(5)
	f.K.PostSignal(p, types.SIGSTOP)
	f.K.Run(5)
	if !p.Rep().Stopped() {
		t.Fatal("not stopped")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

func TestSignalDuringSleepEINTR(t *testing.T) {
	f := boot(t)
	// Reading an empty pipe sleeps; a caught signal interrupts with EINTR.
	p := f.spawn("eintr", `
.entry main
handler:
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, handler
	syscall
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	movi r0, SYS_read	; blocks forever (no writer data)
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall			; -> EINTR
	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
buf:	.space 4
`, user())
	// Let it reach the sleeping read.
	err := f.K.RunUntil(func() bool {
		l := p.Rep()
		return l != nil && l.Asleep()
	}, 100000)
	if err != nil {
		t.Fatalf("never slept: %v", err)
	}
	f.post(p, types.SIGUSR1)
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != int(kernel.EINTR) {
		t.Fatalf("status = %#x, want EINTR", status)
	}
}

func TestSIGPIPE(t *testing.T) {
	f := boot(t)
	p := f.spawn("pipekill", `
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	mov r7, r1
	movi r0, SYS_close	; close the read end
	mov r1, r6
	syscall
	movi r0, SYS_write	; write on a pipe with no one to read it
	mov r1, r7
	la r2, msg
	movi r3, 1
	syscall
loop:	jmp loop
.data
msg:	.ascii "x"
`, user())
	status := f.runToExit(p)
	if ok, sig, _ := kernel.WIfSignaled(status); !ok || sig != types.SIGPIPE {
		t.Fatalf("status = %#x, want SIGPIPE death", status)
	}
}

func TestSIGCHLDIgnoreAutoReaps(t *testing.T) {
	f := boot(t)
	p := f.spawn("autoreap", `
	movi r0, SYS_signal
	movi r1, SIGCHLD
	movi r2, 1		; SIG_IGN
	syscall
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
loop:	jmp parent
`, user())
	err := f.K.RunUntil(func() bool {
		// The child should exist briefly then be auto-reaped.
		count := 0
		for _, q := range f.K.Procs() {
			if q.Parent == p {
				count++
			}
		}
		return p.Alive() && count == 0 && p.Kernel().Now() > 100
	}, 100000)
	if err != nil {
		t.Fatalf("child not auto-reaped: %v", err)
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}
