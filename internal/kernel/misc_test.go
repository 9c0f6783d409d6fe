package kernel_test

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vfs"
)

// A root-owned program drops privilege with setuid/setgid; a second setuid
// back to root must then fail.
func TestSetuidDropsPrivilege(t *testing.T) {
	f := boot(t)
	p := f.spawn("dropper", `
	movi r0, SYS_setgid
	movi r1, 50
	syscall
	movi r0, SYS_setuid
	movi r1, 500
	syscall
	movi r0, SYS_setuid	; try to get root back: EPERM
	movi r1, 0
	syscall
	mov r1, r0
	movi r0, SYS_exit
	syscall
`, types.RootCred())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != int(kernel.EPERM) {
		t.Fatalf("code = %d, want EPERM", code)
	}
	if p.Cred.RUID != 500 || p.Cred.RGID != 50 {
		t.Fatalf("cred = %+v", p.Cred)
	}
}

// setuid to the real or saved uid works without privilege.
func TestSetuidToRealUID(t *testing.T) {
	f := boot(t)
	p := f.spawn("swapper", `
	movi r0, SYS_setuid
	movi r1, 100		; our own ruid: allowed
	syscall
	mov r1, r0
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 0 {
		t.Fatalf("code = %d", code)
	}
}

// sigsuspend: atomically replace the mask and wait; the saved mask is
// restored on return.
func TestSigsuspend(t *testing.T) {
	f := boot(t)
	p := f.spawn("susp", `
.entry main
h:	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, h
	syscall
	movi r0, SYS_sigprocmask	; block USR1
	movi r1, 1
	movi r2, 0x8000
	movi r3, 0
	syscall
	movi r0, SYS_sigsuspend		; wait with an empty mask
	movi r1, 0
	movi r2, 0
	syscall				; returns EINTR after the handler
	mov r6, r0
	movi r0, SYS_sigprocmask	; read back the mask: USR1 still blocked
	movi r1, 1
	movi r2, 0
	movi r3, 0
	syscall				; old mask in r0 (low word)
	movi r2, 0x8000
	and r0, r2
	cmpi r0, 0
	je bad
	mov r1, r6			; EINTR
	movi r0, SYS_exit
	syscall
bad:	movi r1, 77
	movi r0, SYS_exit
	syscall
`, user())
	err := f.K.RunUntil(func() bool {
		l := p.Rep()
		return l != nil && l.Asleep()
	}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	f.K.PostSignal(p, types.SIGUSR1)
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != int(kernel.EINTR) {
		t.Fatalf("code = %d (77 = mask not restored)", code)
	}
}

// TestSigsuspendPendingUnblocked pins that sigsuspend(2) does not sleep
// through a signal already pending that its temporary mask unblocks: the
// call must take the signal before it blocks, run the handler and fail
// with EINTR, at every width. Nothing else would ever wake it.
func TestSigsuspendPendingUnblocked(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			f := bootCfg(t, kernel.Config{NCPU: ncpu})
			p := f.spawn("susppend", `
.entry main
h:	la r3, handled
	movi r4, 1
	st r4, [r3]
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, h
	syscall
	movi r0, SYS_sigprocmask	; block USR1
	movi r1, 1
	movi r2, 0x8000
	movi r3, 0
	syscall
	movi r0, SYS_getpid
	syscall
	mov r1, r0
	movi r0, SYS_kill		; USR1 to ourselves: held, pending
	movi r2, SIGUSR1
	syscall
	movi r0, SYS_sigsuspend		; an empty mask unblocks it
	movi r1, 0
	movi r2, 0
	syscall				; EINTR after the handler
	mov r6, r0
	la r3, handled
	ld r4, [r3]
	cmpi r4, 1
	jne bad
	mov r1, r6
	movi r0, SYS_exit
	syscall
bad:	movi r1, 77
	movi r0, SYS_exit
	syscall
.data
handled: .word 0
`, user())
			status := f.runToExit(p)
			if _, code := kernel.WIfExited(status); code != int(kernel.EINTR) {
				t.Fatalf("exit code = %d, want EINTR (%d); 77 = the handler did not run", code, kernel.EINTR)
			}
		})
	}
}

// times, yield, getpgrp and time are trivially correct.
func TestTrivialSyscalls(t *testing.T) {
	f := boot(t)
	p := f.spawn("triv", `
	movi r0, SYS_yield
	syscall
	movi r0, SYS_time
	syscall
	mov r6, r0		; clock > 0
	movi r0, SYS_times
	syscall			; r0 utime, r1 stime
	mov r7, r0
	movi r0, SYS_getpgrp
	syscall
	mov r5, r0		; pgrp
	cmpi r6, 1
	jlt bad
	cmpi r7, 1
	jlt bad
	cmpi r5, 1
	jlt bad
	movi r1, 0
	movi r0, SYS_exit
	syscall
bad:	movi r1, 1
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 0 {
		t.Fatalf("code = %d", code)
	}
}

// chmod by the owner through the chmodder interface; by a non-owner EPERM.
func TestChmodSyscall(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/own", []byte("x"), 0o644, 100, 10)
	f.FS.WriteFile("/tmp/other", []byte("x"), 0o644, 999, 10)
	p := f.spawn("chm", `
	movi r0, SYS_chmod
	la r1, own
	movi r2, 0x1C0		; 0700
	syscall
	mov r6, r0
	movi r0, SYS_chmod
	la r1, other
	movi r2, 0x1C0
	syscall			; EPERM
	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
own:	.asciz "/tmp/own"
other:	.asciz "/tmp/other"
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != int(kernel.EPERM) {
		t.Fatalf("code = %d, want EPERM", code)
	}
	cl := &vfs.Client{NS: f.K.NS, Cred: types.RootCred()}
	attr, _ := cl.Stat("/tmp/own")
	if attr.Mode != 0o700 {
		t.Fatalf("mode = %o", attr.Mode)
	}
}

// wait(&status): the status word is stored through the user pointer.
func TestWaitStoresStatusWord(t *testing.T) {
	f := boot(t)
	p := f.spawn("waiter", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 3
	syscall
parent:
	movi r0, SYS_wait
	la r1, statw		; store the status here
	syscall
	la r3, statw
	ld r1, [r3]
	shr r1, 8		; exit code from the stored word
	movi r0, SYS_exit
	syscall
.data
statw:	.word 0
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 3 {
		t.Fatalf("code = %d", code)
	}
}

// ioctl(2) from a user program: no devices, ENOTTY; bad fd, EBADF.
func TestUserIoctl(t *testing.T) {
	f := boot(t)
	p := f.spawn("uio", `
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	movi r0, SYS_ioctl
	mov r1, r6
	movi r2, 1
	movi r3, 0
	syscall
	mov r7, r0		; ENOTTY
	movi r0, SYS_ioctl
	movi r1, 63		; unopened fd
	movi r2, 1
	movi r3, 0
	syscall			; EBADF
	shl r0, 8
	or r0, r7
	mov r1, r0
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	_, code := kernel.WIfExited(status)
	// low byte ENOTTY; the EBADF<<8 is truncated off the 8-bit exit code.
	if code != int(kernel.ENOTTY) {
		t.Fatalf("code = %d, want ENOTTY", code)
	}
}

// Ptrace controller PokeUser and single-step.
func TestPtraceControllerPokeUserStep(t *testing.T) {
	f := boot(t)
	p := f.spawn("pstep", `
	movi r1, 1
	movi r2, 2
	movi r3, 3
loop:	jmp loop
`, user())
	c := f.K.PtraceAttach(p)
	f.K.PostSignal(p, types.SIGTRAP)
	if _, err := c.WaitStop(500000); err != nil {
		t.Fatal(err)
	}
	// Rewind the PC to the start and step through, poking a register.
	if err := c.PokeUser(kernel.PtUserPC, 0x80000000); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitStop(500000); err != nil {
		t.Fatal(err)
	}
	pc, _ := c.PeekUser(kernel.PtUserPC)
	if pc != 0x80000004 {
		t.Fatalf("pc = %#x after one step", pc)
	}
	if err := c.PokeUser(5, 0xAA); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.PeekUser(5); v != 0xAA {
		t.Fatal("poke user did not take")
	}
	c.Kill()
}

// Pipe vnode attributes and poll.
func TestPipeAttrAndPoll(t *testing.T) {
	f := boot(t)
	r, w := f.K.NewPipe()
	defer r.Close()
	defer w.Close()
	attr, err := r.VN.VAttr()
	if err != nil || attr.Type != vfs.VFIFO {
		t.Fatalf("%+v %v", attr, err)
	}
	if r.Poll(vfs.PollIn) != 0 {
		t.Fatal("empty pipe should not be readable")
	}
	if w.Poll(vfs.PollOut) != vfs.PollOut {
		t.Fatal("empty pipe should be writable")
	}
	w.Write([]byte("x"))
	if r.Poll(vfs.PollIn) != vfs.PollIn {
		t.Fatal("nonempty pipe should be readable")
	}
	// A pipe vnode cannot be reopened by path machinery.
	if _, err := r.VN.VOpen(vfs.ORead, types.RootCred()); err == nil {
		t.Fatal("pipe VOpen should fail")
	}
	if err := r.Ioctl(1, nil); err != vfs.ErrNoIoctl {
		t.Fatalf("pipe ioctl: %v", err)
	}
}

// Kernel odds and ends: Tick advances timers, Proc.LWP lookup, stop-reason
// and state strings.
func TestKernelOddsAndEnds(t *testing.T) {
	f := boot(t)
	p := f.spawn("odds", spinForever, user())
	before := f.K.Now()
	f.K.Tick()
	if f.K.Now() != before+1 {
		t.Fatal("Tick did not advance")
	}
	if f.K.InitProc() != nil {
		t.Fatal("this fixture boots without an init")
	}
	l := p.LWP(1)
	if l == nil || p.LWP(99) != nil {
		t.Fatal("LWP lookup wrong")
	}
	if l.State().String() != "run" {
		t.Fatalf("state = %q", l.State())
	}
	if kernel.WhySignalled.String() != "signalled" {
		t.Fatal("why string")
	}
	if kernel.StopWhy(99).String() != "?" || kernel.LState(99).String() != "?" {
		t.Fatal("out-of-range strings")
	}
	if args := l.SysArgs(); args != ([6]uint32{}) {
		t.Fatalf("args = %v", args)
	}
	if kernel.ErrNotStopped.Error() == "" {
		t.Fatal("error string empty")
	}
	f.K.PostSignal(p, types.SIGKILL)
	f.runToExit(p)
}
