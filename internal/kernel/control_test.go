package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vcpu"
)

// waitStop drives until an event-of-interest stop.
func (f *fixture) waitStop(p *kernel.Proc) *kernel.LWP {
	f.t.Helper()
	l, err := f.K.WaitStop(p, 2_000_000)
	if err != nil {
		f.t.Fatalf("WaitStop: %v", err)
	}
	return l
}

func (f *fixture) run(l *kernel.LWP, flags kernel.RunFlags) {
	f.t.Helper()
	if err := f.K.RunLWP(l, flags); err != nil {
		f.t.Fatalf("RunLWP: %v", err)
	}
}

// --- Figure 3: points in the kernel at which a process may stop ---

func TestFigure3StopOnSyscallEntry(t *testing.T) {
	f := boot(t)
	p := f.spawn("f3entry", exit42, user())
	p.Trace.Entry.Add(kernel.SysExit)
	l := f.waitStop(p)
	why, what := l.Why()
	if why != kernel.WhySysEntry || what != kernel.SysExit {
		t.Fatalf("why=%v what=%d", why, what)
	}
	// The stop occurs before the system has fetched the arguments: the
	// debugger can change them now.
	l.CPU.Regs.R[1] = 99
	f.run(l, kernel.RunFlags{})
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 99 {
		t.Fatalf("exit code = %d, want the debugger's 99", code)
	}
}

func TestFigure3StopOnSyscallExit(t *testing.T) {
	f := boot(t)
	p := f.spawn("f3exit", `
	movi r0, SYS_getpid
	syscall
	mov r1, r0		; pid (possibly forged by the debugger)
	movi r0, SYS_exit
	syscall
`, user())
	p.Trace.Exit.Add(kernel.SysGetpid)
	l := f.waitStop(p)
	why, what := l.Why()
	if why != kernel.WhySysExit || what != kernel.SysGetpid {
		t.Fatalf("why=%v what=%d", why, what)
	}
	// Return values are already stored: manufacture a different one.
	if l.CPU.Regs.R[0] != uint32(p.Pid) {
		t.Fatalf("r0 = %d, want real pid %d", l.CPU.Regs.R[0], p.Pid)
	}
	l.CPU.Regs.R[0] = 123
	f.run(l, kernel.RunFlags{})
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 123 {
		t.Fatalf("exit code = %d, want forged 123", code)
	}
}

func TestFigure3StopOnFault(t *testing.T) {
	f := boot(t)
	p := f.spawn("f3fault", `
	bpt
	movi r0, SYS_exit
	movi r1, 5
	syscall
`, user())
	p.Trace.Faults.Add(types.FLTBPT)
	l := f.waitStop(p)
	why, what := l.Why()
	if why != kernel.WhyFaulted || what != types.FLTBPT {
		t.Fatalf("why=%v what=%d", why, what)
	}
	// PC is at the breakpoint itself.
	st, _ := p.Status()
	if st.Reg.PC != 0x80000000 {
		t.Fatalf("pc = %#x", st.Reg.PC)
	}
	// Clearing the fault and stepping over: replace with NOP and run.
	var nop [4]byte
	w := vcpu.Encode(vcpu.OpNOP, 0, 0, 0)
	nop[0], nop[1], nop[2], nop[3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	p.AS.WriteAt(nop[:], int64(st.Reg.PC))
	f.run(l, kernel.RunFlags{ClearFault: true})
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 5 {
		t.Fatalf("exit code = %d", code)
	}
}

func TestFigure3StopOnSignalReceipt(t *testing.T) {
	f := boot(t)
	p := f.spawn("f3sig", spinForever, user())
	p.Trace.Sigs.Add(types.SIGUSR2)
	f.K.Run(3)
	f.K.PostSignal(p, types.SIGUSR2)
	l := f.waitStop(p)
	why, what := l.Why()
	if why != kernel.WhySignalled || what != types.SIGUSR2 {
		t.Fatalf("why=%v what=%d", why, what)
	}
	if l.CurSig != types.SIGUSR2 {
		t.Fatal("current signal should be set at a signalled stop")
	}
	// Clear the signal and run: the default action (termination) must NOT
	// be taken — breakpoint debugging relieved of signal ambiguity.
	f.run(l, kernel.RunFlags{ClearSig: true})
	f.K.Run(20)
	if !p.Alive() {
		t.Fatal("cleared signal still killed the process")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

func TestRequestedStop(t *testing.T) {
	f := boot(t)
	p := f.spawn("reqstop", spinForever, user())
	f.K.Run(3)
	f.stopAll(p)
	l := f.waitStop(p)
	if why, _ := l.Why(); why != kernel.WhyRequested {
		t.Fatalf("why = %v", why)
	}
	f.run(l, kernel.RunFlags{})
	f.K.Run(5)
	if p.Rep().Stopped() {
		t.Fatal("did not resume")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

func TestPRSTEPSingleStep(t *testing.T) {
	f := boot(t)
	p := f.spawn("stepper", `
	movi r1, 1
	movi r2, 2
	movi r3, 3
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, user())
	p.Trace.Faults.Add(types.FLTTRACE)
	f.stopAll(p)
	l := f.waitStop(p)
	pc0 := l.CPU.Regs.PC
	f.run(l, kernel.RunFlags{Step: true})
	l = f.waitStop(p)
	why, what := l.Why()
	if why != kernel.WhyFaulted || what != types.FLTTRACE {
		t.Fatalf("why=%v what=%d", why, what)
	}
	if l.CPU.Regs.PC != pc0+4 {
		t.Fatalf("pc advanced %#x -> %#x, want one instruction", pc0, l.CPU.Regs.PC)
	}
	// Step again.
	f.run(l, kernel.RunFlags{Step: true, ClearFault: true})
	l = f.waitStop(p)
	if l.CPU.Regs.PC != pc0+8 {
		t.Fatalf("second step pc = %#x", l.CPU.Regs.PC)
	}
	f.run(l, kernel.RunFlags{ClearFault: true})
	f.runToExit(p)
}

// --- Figure 4: issig() scenarios ---

// The process stops twice for one job-control signal: first a signalled
// stop (traced), then the job-control stop when set running without
// clearing the signal.
func TestFigure4DoubleStopOnJobControlSignal(t *testing.T) {
	f := boot(t)
	p := f.spawn("dbl", spinForever, user())
	p.Trace.Sigs.Add(types.SIGTSTP)
	f.K.Run(3)
	f.K.PostSignal(p, types.SIGTSTP)
	l := f.waitStop(p)
	if why, what := l.Why(); why != kernel.WhySignalled || what != types.SIGTSTP {
		t.Fatalf("first stop: why=%v what=%d", why, what)
	}
	// Set running WITHOUT clearing the signal: job-control stop follows.
	f.run(l, kernel.RunFlags{})
	if err := f.K.RunUntil(func() bool {
		why, _ := l.Why()
		return l.Stopped() && why == kernel.WhyJobControl
	}, 100000); err != nil {
		t.Fatalf("no job-control stop: %v", err)
	}
	// Such a stopped process can be restarted only by SIGCONT.
	f.K.PostSignal(p, types.SIGCONT)
	f.K.Run(5)
	if l.Stopped() {
		t.Fatal("SIGCONT did not restart")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

// "/proc gets the last word": a process stopped by job control, directed to
// stop via /proc, stops again on the requested stop when SIGCONT restarts it.
func TestFigure4ProcGetsTheLastWord(t *testing.T) {
	f := boot(t)
	p := f.spawn("lastword", spinForever, user())
	f.K.Run(3)
	f.K.PostSignal(p, types.SIGSTOP)
	f.K.Run(5)
	l := p.Rep()
	if why, _ := l.Why(); why != kernel.WhyJobControl {
		t.Fatal("setup: no job-control stop")
	}
	// Direct it to stop via /proc while job-stopped.
	f.stopAll(p)
	// Restart with SIGCONT: it must stop again, now on the requested stop,
	// before exiting issig().
	f.K.PostSignal(p, types.SIGCONT)
	l2 := f.waitStop(p)
	if why, _ := l2.Why(); why != kernel.WhyRequested {
		t.Fatalf("why = %v, want requested stop after SIGCONT", why)
	}
	f.run(l2, kernel.RunFlags{})
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

// A requested stop is performed in issig(), so a process can be directed to
// stop while sleeping and set running again without disturbing the system
// call.
func TestFigure4StopWhileSleepingWithoutDisturbing(t *testing.T) {
	f := boot(t)
	p := f.spawn("sleepstop", `
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	mov r7, r1
	movi r0, SYS_read	; sleeps: empty pipe
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	mov r1, r0		; bytes read: must be 1, NOT EINTR
	movi r0, SYS_exit
	syscall
.data
buf:	.space 4
`, user())
	err := f.K.RunUntil(func() bool {
		l := p.Rep()
		return l != nil && l.Asleep()
	}, 100000)
	if err != nil {
		t.Fatalf("never slept: %v", err)
	}
	// Direct a stop while it sleeps.
	f.stopAll(p)
	l := f.waitStop(p)
	if why, _ := l.Why(); why != kernel.WhyRequested {
		t.Fatalf("why = %v", why)
	}
	st := l.LWPStatus()
	if st.Syscall != kernel.SysRead {
		t.Fatalf("stopped syscall = %d, want read", st.Syscall)
	}
	// Set it running again: the read must keep waiting, undisturbed.
	f.run(l, kernel.RunFlags{})
	f.K.Run(20)
	if !p.Alive() {
		t.Fatal("process died")
	}
	// Satisfy the read by writing into the pipe from the kernel side: the
	// write end is fd r7 of the process — write via its descriptor.
	wfd := p.FD(int(l.CPU.Regs.R[7]))
	if wfd == nil {
		t.Fatal("no write fd")
	}
	f.K.GlobalLock() // the pipe's write wakes the reader
	_, err = wfd.Write([]byte{'x'})
	f.K.GlobalUnlock()
	if err != nil {
		t.Fatal(err)
	}
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 1 {
		t.Fatalf("status = %#x, want clean read of 1 byte", status)
	}
}

// PRSABORT: a sleeping system call can be aborted without sending a signal.
func TestFigure4AbortSyscallWithoutSignal(t *testing.T) {
	f := boot(t)
	p := f.spawn("aborter", `
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall			; aborted -> EINTR
	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
buf:	.space 4
`, user())
	err := f.K.RunUntil(func() bool {
		l := p.Rep()
		return l != nil && l.Asleep()
	}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	f.stopAll(p)
	l := f.waitStop(p)
	f.run(l, kernel.RunFlags{Abort: true})
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != int(kernel.EINTR) {
		t.Fatalf("status = %#x, want EINTR without any signal", status)
	}
	if p.Usage.Signals != 0 {
		t.Fatal("abort should not involve signals")
	}
}

// Syscall encapsulation (C13): abort at entry and manufacture return values
// at exit — simulating a system call entirely at user level.
func TestSyscallEncapsulation(t *testing.T) {
	f := boot(t)
	p := f.spawn("encap", `
	movi r0, SYS_time
	syscall			; the "obsolete syscall" we simulate
	mov r1, r0
	movi r0, SYS_exit
	syscall
`, user())
	p.Trace.Entry.Add(kernel.SysTime)
	p.Trace.Exit.Add(kernel.SysTime)
	l := f.waitStop(p)
	if why, _ := l.Why(); why != kernel.WhySysEntry {
		t.Fatal("no entry stop")
	}
	// Abort execution of the call and go directly to system call exit.
	f.run(l, kernel.RunFlags{Abort: true})
	l = f.waitStop(p)
	if why, _ := l.Why(); why != kernel.WhySysExit {
		t.Fatal("no exit stop")
	}
	// The aborted call failed with EINTR; manufacture a success instead.
	l.CPU.Regs.R[0] = 7777 & 0xFF // fabricated "time" (exit code is 8 bits)
	l.CPU.Regs.PSW &^= uint32(vcpu.FlagC)
	f.run(l, kernel.RunFlags{})
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 7777&0xFF {
		t.Fatalf("code = %d, want the fabricated value", code)
	}
}

// --- the competing mechanism: ptrace ---

func TestPtraceStopOnSignal(t *testing.T) {
	f := boot(t)
	p := f.spawn("pt1", spinForever, user())
	c := f.K.PtraceAttach(p)
	f.K.PostSignal(p, types.SIGUSR1)
	sig, err := c.WaitStop(100000)
	if err != nil {
		t.Fatal(err)
	}
	if sig != types.SIGUSR1 {
		t.Fatalf("stop sig = %d", sig)
	}
	// Peek registers a word at a time.
	pc, err := c.PeekUser(kernel.PtUserPC)
	if err != nil {
		t.Fatal(err)
	}
	if pc < 0x80000000 {
		t.Fatalf("pc = %#x", pc)
	}
	// Continue clearing the signal; then kill.
	if err := c.Cont(0); err != nil {
		t.Fatal(err)
	}
	f.K.Run(5)
	if !p.Alive() {
		t.Fatal("cleared signal killed the process")
	}
	c.Kill()
	if p.Alive() {
		f.runToExit(p)
	}
}

func TestPtracePeekPoke(t *testing.T) {
	f := boot(t)
	p := f.spawn("pt2", spinForever, user())
	c := f.K.PtraceAttach(p)
	f.K.PostSignal(p, types.SIGTRAP)
	if _, err := c.WaitStop(100000); err != nil {
		t.Fatal(err)
	}
	w, err := c.PeekText(0x80000000)
	if err != nil {
		t.Fatal(err)
	}
	if w>>24 != vcpu.OpJMP {
		t.Fatalf("text word = %#x", w)
	}
	if err := c.PokeText(0x80000000, vcpu.Encode(vcpu.OpNOP, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	w2, _ := c.PeekText(0x80000000)
	if w2>>24 != vcpu.OpNOP {
		t.Fatal("poke did not take")
	}
	c.Kill()
}

// The paper's interplay: a signal traced by /proc in a ptraced process stops
// first for /proc; setting it running via /proc leaves it ptrace-stopped;
// after ptrace continues it, a pending /proc directive stops it again.
func TestPtraceProcInterplay(t *testing.T) {
	f := boot(t)
	p := f.spawn("pt3", spinForever, user())
	p.Trace.Sigs.Add(types.SIGUSR1)
	c := f.K.PtraceAttach(p)
	f.K.PostSignal(p, types.SIGUSR1)

	// First: the /proc signalled stop.
	l := f.waitStop(p)
	if why, _ := l.Why(); why != kernel.WhySignalled {
		t.Fatalf("first stop why = %v", why)
	}
	// Direct a future stop, then set running through /proc: it remains
	// stopped — ptrace has control.
	f.stopAll(p)
	f.run(l, kernel.RunFlags{})
	f.K.Run(5)
	if !l.Stopped() {
		t.Fatal("should remain ptrace-stopped")
	}
	if !c.Stopped() {
		t.Fatal("ptrace does not see its stop")
	}
	// ptrace sets it running: it stops again on the requested stop.
	if err := c.Cont(0); err != nil {
		t.Fatal(err)
	}
	l2 := f.waitStop(p)
	if why, _ := l2.Why(); why != kernel.WhyRequested {
		t.Fatalf("after ptrace cont: why = %v, want requested (/proc gets the last word)", why)
	}
	f.run(l2, kernel.RunFlags{})
	c.Kill()
}

// Breakpoints: stop-on-FLTBPT is independent of signals — a held SIGTRAP
// does not prevent the faulted stop, while a signalled stop would never
// happen for a held signal.
func TestBreakpointFaultVsHeldSignal(t *testing.T) {
	f := boot(t)
	p := f.spawn("heldtrap", `
	movi r0, SYS_sigprocmask
	movi r1, 1		; BLOCK
	movi r2, 0x10		; 1 << (SIGTRAP-1) = 1<<4
	movi r3, 0
	syscall
	bpt
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, user())
	p.Trace.Faults.Add(types.FLTBPT)
	l := f.waitStop(p)
	if why, what := l.Why(); why != kernel.WhyFaulted || what != types.FLTBPT {
		t.Fatalf("why=%v what=%d: fault stop must ignore signal masking", why, what)
	}
	// Contrast: tracing SIGTRAP instead would never stop (signal held).
	st := l.LWPStatus()
	if !st.SigHold.Has(types.SIGTRAP) {
		t.Fatal("SIGTRAP should be held")
	}
	// Repair: overwrite bpt with nop, clear fault, run to exit.
	w := vcpu.Encode(vcpu.OpNOP, 0, 0, 0)
	p.AS.WriteAt([]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}, int64(st.Reg.PC))
	f.run(l, kernel.RunFlags{ClearFault: true})
	f.runToExit(p)
}

// Inherit-on-fork: the child inherits tracing flags and both parent and
// child stop on exit from fork; the child has run no user-level code.
func TestInheritOnFork(t *testing.T) {
	f := boot(t)
	p := f.spawn("inh", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 21
	syscall
parent:
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, user())
	p.Trace.InhFork = true
	p.Trace.Exit.Add(kernel.SysFork)
	// Parent stops on exit from fork.
	l := f.waitStop(p)
	if why, what := l.Why(); why != kernel.WhySysExit || what != kernel.SysFork {
		t.Fatalf("parent: why=%v what=%d", why, what)
	}
	childPid := int(l.CPU.Regs.R[0])
	child := f.K.Proc(childPid)
	if child == nil {
		t.Fatal("child not found from fork return value")
	}
	if !child.Trace.InhFork || !child.Trace.Exit.Has(kernel.SysFork) {
		t.Fatal("child did not inherit tracing flags")
	}
	// Child stops on exit from fork too, before any user-level code.
	cl, err := f.K.WaitStop(child, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if why, what := cl.Why(); why != kernel.WhySysExit || what != kernel.SysFork {
		t.Fatalf("child: why=%v what=%d", why, what)
	}
	if cl.CPU.Regs.R[0] != 0 {
		t.Fatal("child fork return value should be 0")
	}
	if cl.CPU.Instret != 0 {
		t.Fatal("child should not have executed user instructions")
	}
	// Release both; the child must exit 21, the parent 0.
	f.run(cl, kernel.RunFlags{})
	f.run(l, kernel.RunFlags{})
	if err := f.K.RunUntil(func() bool { return !p.Alive() }, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(p.ExitStatus); code != 0 {
		t.Fatalf("parent code = %d", code)
	}
}

// Without inherit-on-fork the child starts with tracing flags cleared.
func TestForkClearsTracingWithoutInherit(t *testing.T) {
	f := boot(t)
	p := f.spawn("noinh", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, user())
	p.Trace.Exit.Add(kernel.SysFork)
	l := f.waitStop(p)
	childPid := int(l.CPU.Regs.R[0])
	child := f.K.Proc(childPid)
	if child == nil {
		t.Fatal("no child")
	}
	if !child.Trace.Empty() {
		t.Fatal("child should start with tracing flags cleared")
	}
	f.run(l, kernel.RunFlags{})
	f.runToExit(p)
}

// LWPs: a multi-threaded process exposes per-LWP stops.
func TestLWPCreationAndControl(t *testing.T) {
	f := boot(t)
	p := f.spawn("threads", `
	movi r0, SYS_mmap	; stack for the new lwp
	movi r1, 0
	movi r2, 0
	movhi r2, 1
	movi r3, 3
	movi r4, 0
	syscall
	mov r6, r0
	movi r2, 0		; stack top = base + 64K
	movhi r2, 1
	add r6, r2
	movi r0, SYS_lwp_create
	la r1, thread
	mov r2, r6
	syscall
	; main lwp spins on the flag
wait:	la r3, flag
	ld r4, [r3]
	cmpi r4, 1
	jne wait
	movi r0, SYS_exit
	movi r1, 66
	syscall
thread:
	la r3, flag
	movi r4, 1
	st r4, [r3]
	movi r0, SYS_lwp_exit
	syscall
.data
flag:	.word 0
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 66 {
		t.Fatalf("status = %#x", status)
	}
	if p.Usage.Syscalls < 3 {
		t.Fatal("expected several syscalls")
	}
}

func TestSetIDExecMarksSugid(t *testing.T) {
	f := boot(t)
	f.install("/bin/su", exit42, 0o4755, 0, 0) // setuid root
	p := f.spawn("runner", `
	movi r0, SYS_exec
	la r1, path
	syscall
	movi r0, SYS_exit
	movi r1, 1
	syscall
.data
path:	.asciz "/bin/su"
`, user())
	f.runToExit(p)
	if !p.SugidDirty {
		t.Fatal("set-id exec should mark the process")
	}
	if p.Cred.EUID != 0 || p.Cred.RUID != 100 {
		t.Fatalf("cred = %+v", p.Cred)
	}
}

func TestPSInfoSnapshot(t *testing.T) {
	f := boot(t)
	p := f.spawn("psinfo", spinForever, user())
	f.K.Run(10)
	info := p.PSInfo()
	if info.Pid != p.Pid || info.UID != 100 || info.GID != 10 ||
		info.Comm != "psinfo" || info.State != 'R' || info.VSize == 0 {
		t.Fatalf("info = %+v", info)
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}

func TestUsageAccounting(t *testing.T) {
	f := boot(t)
	p := f.spawn("usage", `
	movi r0, SYS_getpid
	syscall
	movi r0, SYS_getuid
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, user())
	f.runToExit(p)
	if p.Usage.Syscalls != 3 {
		t.Fatalf("syscalls = %d, want 3", p.Usage.Syscalls)
	}
	if p.Usage.UserTicks == 0 || p.Usage.SysTicks == 0 {
		t.Fatalf("usage = %+v", p.Usage)
	}
}
