package procfs2_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// Every remaining ctl message code, exercised end to end.
func TestCtlMessageCoverage(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("msgs", `
loop:	jmp loop
.data
cell:	.word 0
`, types.UserCred(100, 10))
	s.Run(2)
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()
	write := func(b []byte) {
		t.Helper()
		ctl.Offset = 0
		if _, err := ctl.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	// PCSHOLD: hold a signal (SIGKILL silently excluded).
	var hold types.SigSet
	hold.Add(types.SIGUSR1)
	hold.Add(types.SIGKILL)
	write((&procfs2.CtlBuf{}).SHold(hold).Bytes())
	l := p.Rep()
	if !l.SigHold.Has(types.SIGUSR1) || l.SigHold.Has(types.SIGKILL) {
		t.Fatalf("hold = %v", l.SigHold)
	}

	// PCKILL of the held signal pends; PCUNKILL deletes it.
	write((&procfs2.CtlBuf{}).Kill(types.SIGUSR1).Bytes())
	if !p.SigPend.Has(types.SIGUSR1) {
		t.Fatal("kill did not pend")
	}
	write((&procfs2.CtlBuf{}).UnKill(types.SIGUSR1).Bytes())
	if p.SigPend.Has(types.SIGUSR1) {
		t.Fatal("unkill did not delete")
	}

	// PCSTOP + PCSREG + PCSSIG.
	write((&procfs2.CtlBuf{}).Stop().Bytes())
	regs := l.CPU.Regs
	regs.R[6] = 0xFEED
	write((&procfs2.CtlBuf{}).SReg(regs).Bytes())
	if l.CPU.Regs.R[6] != 0xFEED {
		t.Fatal("PCSREG did not take")
	}
	write((&procfs2.CtlBuf{}).SSig(types.SIGUSR2).Bytes())
	if l.CurSig != types.SIGUSR2 {
		t.Fatal("PCSSIG did not take")
	}
	write((&procfs2.CtlBuf{}).SSig(0).Bytes())
	if l.CurSig != 0 {
		t.Fatal("PCSSIG 0 did not clear")
	}

	// PCWATCH / PCCWATCH.
	syms, _ := p.ImageSyms()
	var cell uint32
	for _, sym := range syms {
		if sym.Name == "cell" {
			cell = sym.Value
		}
	}
	write((&procfs2.CtlBuf{}).Watch(cell, 4, uint32(mem.ProtWrite)).Bytes())
	if len(p.AS.Watches()) != 1 {
		t.Fatal("PCWATCH did not take")
	}
	write((&procfs2.CtlBuf{}).CWatch(cell).Bytes())
	if len(p.AS.Watches()) != 0 {
		t.Fatal("PCCWATCH did not clear")
	}

	// PCSET / PCUNSET.
	write((&procfs2.CtlBuf{}).Set(procfs2.SetFork | procfs2.SetRLC).Bytes())
	if !p.Trace.InhFork || !p.Trace.RunLC {
		t.Fatal("PCSET did not take")
	}
	write((&procfs2.CtlBuf{}).Unset(procfs2.SetRLC).Bytes())
	if p.Trace.RunLC || !p.Trace.InhFork {
		t.Fatal("PCUNSET wrong")
	}
	write((&procfs2.CtlBuf{}).Unset(procfs2.SetFork).Bytes())

	// PCRUN with a new program counter (PRSVADDR).
	entry := uint32(0x80000000)
	write((&procfs2.CtlBuf{}).Run(procfs2.RunSetPC, entry).Bytes())
	if l.CPU.Regs.PC != entry {
		t.Fatalf("pc = %#x", l.CPU.Regs.PC)
	}
	s.K.PostSignal(p, types.SIGKILL)
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
}

// PCCFAULT at a faulted stop, and PCRUN with the step flag.
func TestCtlFaultAndStep(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("cf", `
	bpt
	movi r0, SYS_exit
	movi r1, 8
	syscall
`, types.UserCred(100, 10))
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()
	var flts types.FltSet
	flts.Add(types.FLTBPT)
	flts.Add(types.FLTTRACE)
	if _, err := ctl.Write((&procfs2.CtlBuf{}).SFault(flts).WStop().Bytes()); err != nil {
		t.Fatal(err)
	}
	l := p.EventStoppedLWP()
	if why, what := l.Why(); why != kernel.WhyFaulted || what != types.FLTBPT {
		t.Fatalf("why=%v what=%d", why, what)
	}
	// Repair: overwrite bpt with nop; clear fault; single-step.
	as := openf(t, s, dir(p.Pid)+"/as", vfs.OWrite|vfs.ORead)
	defer as.Close()
	w := vcpu.Encode(vcpu.OpNOP, 0, 0, 0)
	if _, err := as.Pwrite([]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}, 0x80000000); err != nil {
		t.Fatal(err)
	}
	ctl.Offset = 0
	if _, err := ctl.Write((&procfs2.CtlBuf{}).CFault().Run(procfs2.RunClearFault|procfs2.RunStep, 0).WStop().Bytes()); err != nil {
		t.Fatal(err)
	}
	if why, what := p.EventStoppedLWP().Why(); why != kernel.WhyFaulted || what != types.FLTTRACE {
		t.Fatalf("step stop: %v/%d", why, what)
	}
	ctl.Offset = 0
	if _, err := ctl.Write((&procfs2.CtlBuf{}).SFault(types.FltSet{}).Run(procfs2.RunClearFault, 0).Bytes()); err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != 8 {
		t.Fatalf("code = %d", code)
	}
}

// Abort a sleeping syscall via a ctl message (PRSABORT equivalent).
func TestCtlAbortSleepingSyscall(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("ab", `
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	mov r1, r0		; EINTR
	movi r0, SYS_exit
	syscall
.data
buf:	.space 4
`, types.UserCred(100, 10))
	if err := s.RunUntil(func() bool {
		l := p.Rep()
		return l != nil && l.Asleep()
	}, 500000); err != nil {
		t.Fatal(err)
	}
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()
	if _, err := ctl.Write((&procfs2.CtlBuf{}).Stop().Run(procfs2.RunAbort, 0).Bytes()); err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != int(kernel.EINTR) {
		t.Fatalf("code = %d, want EINTR", code)
	}
}

// Unknown and malformed messages.
func TestCtlBadMessages(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("bad", spin, types.UserCred(100, 10))
	s.Run(2)
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()
	// Unknown code.
	if _, err := ctl.Pwrite([]byte{0, 0, 0, 99}, 0); err != vfs.ErrInval {
		t.Fatalf("unknown code: %v", err)
	}
	// PCSSIG with an absurd signal.
	bad := (&procfs2.CtlBuf{}).SSig(500).Bytes()
	if _, err := ctl.Pwrite(bad, 0); err != vfs.ErrInval {
		t.Fatalf("bad signal: %v", err)
	}
	// Reading a ctl file fails even with a read-write... ctl files are
	// write-only by VOpen, so this can't even be opened for read.
	if _, err := s.Client(types.RootCred()).Open(dir(p.Pid)+"/ctl", vfs.ORead|vfs.OWrite); err == nil {
		t.Fatal("read-write ctl open should fail")
	}
}

// The lwp files poll per-LWP readiness.
func TestLWPPoll(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("lp", spin, types.UserCred(100, 10))
	s.Run(2)
	lst := openf(t, s, dir(p.Pid)+"/lwp/1/lwpstatus", vfs.ORead)
	defer lst.Close()
	if lst.Poll(vfs.PollPri) != 0 {
		t.Fatal("running lwp should not be ready")
	}
	ctl := openf(t, s, dir(p.Pid)+"/lwp/1/lwpctl", vfs.OWrite)
	defer ctl.Close()
	if _, err := ctl.Write((&procfs2.CtlBuf{}).Stop().Bytes()); err != nil {
		t.Fatal(err)
	}
	if lst.Poll(vfs.PollPri) != vfs.PollPri {
		t.Fatal("stopped lwp should be ready")
	}
	ctl.Offset = 0
	ctl.Write((&procfs2.CtlBuf{}).Run(0, 0).Bytes())
}

// Each ctl message is checked against its descriptor when it is applied, not
// once per write: a set-id exec that invalidates the descriptor while a
// batch waits in PCWSTOP ends the batch there. The write is short — only the
// PCWSTOP is consumed — and the register store meant for the unprivileged
// process never reaches the now set-id one.
func TestCtlBatchStopsAtSetIDExec(t *testing.T) {
	s := repro.NewSystem()
	if err := s.Install("/bin/su3", spin, 0o4755, 0, 0); err != nil {
		t.Fatal(err)
	}
	user := types.UserCred(100, 10)
	p, err := s.SpawnProg("bsu", `
	movi r0, SYS_exec
	la r1, path
	syscall
loop:	jmp loop
.data
path:	.asciz "/bin/su3"
`, user)
	if err != nil {
		t.Fatal(err)
	}
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	batch := (&procfs2.CtlBuf{}).WStop().SReg(vcpu.Regs{PC: 0xdead0000}).Bytes()
	n, err := ctl.Write(batch)
	if err != nil || n != 4 {
		t.Fatalf("write = %d, %v; want 4 (the PCWSTOP only), nil", n, err)
	}
	if !p.SugidDirty || p.Cred.EUID != 0 {
		t.Fatalf("the set-id exec did not happen: euid %d", p.Cred.EUID)
	}
	if pc := p.Rep().CPU.Regs.PC; pc == 0xdead0000 {
		t.Fatal("PCSREG applied through an invalidated descriptor")
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
}

// PIOCUNKILL and PCUNKILL are one verb, so they agree on every operand:
// EINVAL for a number outside 1..MaxSig, and a valid signal deletes the
// pending one.
func TestUnKillAgreesAcrossInterfaces(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("unk", spin, types.UserCred(100, 10))
	s.Run(2)
	flat, err := s.OpenProc(p.Pid, vfs.ORead|vfs.OWrite, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()
	send := func(b *procfs2.CtlBuf) error {
		ctl.Offset = 0
		_, err := ctl.Write(b.Bytes())
		return err
	}
	var hold types.SigSet
	hold.Add(types.SIGUSR1)
	if err := send((&procfs2.CtlBuf{}).SHold(hold)); err != nil {
		t.Fatal(err)
	}
	unkills := map[string]func(sig int) error{
		"PIOCUNKILL": func(sig int) error { return flat.Ioctl(procfs.PIOCUNKILL, &sig) },
		"PCUNKILL":   func(sig int) error { return send((&procfs2.CtlBuf{}).UnKill(sig)) },
	}
	for name, unkill := range unkills {
		for _, sig := range []int{0, types.MaxSig + 1} {
			if err := unkill(sig); err != vfs.ErrInval {
				t.Errorf("%s(%d) = %v, want EINVAL", name, sig, err)
			}
		}
		if err := send((&procfs2.CtlBuf{}).Kill(types.SIGUSR1)); err != nil || !p.SigPend.Has(types.SIGUSR1) {
			t.Fatalf("%s: SIGUSR1 not pending (%v)", name, err)
		}
		if err := unkill(types.SIGUSR1); err != nil || p.SigPend.Has(types.SIGUSR1) {
			t.Errorf("%s(SIGUSR1) = %v, pending %v; want it deleted", name, err, p.SigPend.Has(types.SIGUSR1))
		}
	}
}

// A wait verb from a simulated process fails with EDEADLK instead of
// driving the scheduler from inside its own pass (a nil-Proc panic at
// NCPU=1, a hang at NCPU=2). A parent forks a spinning child and writes
// [PCSTOP][PCKILL 9] to the child's ctl file: the directed stop applies,
// the wait fails and the batch stops there, so the write returns EDEADLK
// and the kill is not sent. Once the child has stopped, a second write,
// [PCKILL 9][PCRUN], kills it, and the parent reaps it and exits with the
// first write's errno.
func TestCtlWaitFromProcessIsEDEADLK(t *testing.T) {
	s := repro.NewSystem()
	defer s.Close()
	p, err := s.SpawnProg("waiter", fmt.Sprintf(`
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
loop:	jmp loop
parent:	mov r5, r0		; the child's pid
	la r4, name		; render it as the 5-digit directory name, backwards
	addi r4, 4
	movi r3, 5
digs:	mov r1, r5
	movi r2, 10
	mod r1, r2
	addi r1, 48
	stb r1, [r4]
	movi r2, 10
	div r5, r2
	addi r4, -1
	addi r3, -1
	cmpi r3, 0
	jne digs
	movi r0, SYS_open
	la r1, path
	movi r2, %d
	syscall
	mov r6, r0
	movi r0, SYS_write
	mov r1, r6
	la r2, stopkill
	movi r3, 12
	syscall
	mov r7, r0		; the errno
	movi r5, 100
again:	movi r0, SYS_sleep	; let the child reach its directed stop
	movi r1, 1
	syscall
	movi r0, SYS_write
	mov r1, r6
	la r2, killrun
	movi r3, 20
	syscall
	cmpi r0, 20
	je reap
	addi r5, -1
	cmpi r5, 0
	jne again
	jmp bad
reap:	movi r0, SYS_wait
	movi r1, 0
	syscall
	mov r1, r7
	movi r0, SYS_exit
	syscall
bad:	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
.align 4
stopkill: .word %d, %d, 9
killrun: .word %d, 9, %d, 0, 0
path:	.ascii "/procx/"
name:	.ascii "00000"
	.asciz "/ctl"
`, vfs.OWrite, procfs2.PCSTOP, procfs2.PCKILL, procfs2.PCKILL, procfs2.PCRUN), types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != int(kernel.EDEADLK) {
		t.Fatalf("exit code %d, want EDEADLK (%d) from the waiting write", code, kernel.EDEADLK)
	}
}
