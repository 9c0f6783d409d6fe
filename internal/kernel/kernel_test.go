package kernel_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// fixture boots a kernel over a memfs root.
type fixture struct {
	t  *testing.T
	K  *kernel.Kernel
	FS *memfs.FS
}

func boot(t *testing.T) *fixture { return bootWith(t, 0) }

// bootWith boots a kernel with an explicit scheduler quantum.
func bootWith(t *testing.T, quantum int) *fixture {
	t.Helper()
	var k *kernel.Kernel
	fs := memfs.New(func() int64 {
		if k == nil {
			return 0
		}
		return k.Now()
	})
	ns := vfs.NewNS(fs.Root())
	k = kernel.New(ns, kernel.Config{Quantum: quantum})
	k.BootSystemProcs()
	fs.MkdirAll("/bin", 0o755)
	fs.MkdirAll("/lib", 0o755)
	fs.MkdirAll("/tmp", 0o777)
	return &fixture{t: t, K: k, FS: fs}
}

// install assembles src and writes the executable.
func (f *fixture) install(path, src string, mode uint16, uid, gid int) {
	f.t.Helper()
	img, err := asm.Assemble(src, &asm.Options{Predef: kernel.Predefs()})
	if err != nil {
		f.t.Fatalf("assemble %s: %v", path, err)
	}
	if err := f.FS.WriteFile(path, img.Marshal(), mode, uid, gid); err != nil {
		f.t.Fatal(err)
	}
}

// spawn installs and starts a program.
func (f *fixture) spawn(name, src string, cred types.Cred) *kernel.Proc {
	f.t.Helper()
	path := "/bin/" + name
	f.install(path, src, 0o755, 0, 0)
	p, err := f.K.Spawn(path, nil, cred, nil)
	if err != nil {
		f.t.Fatalf("spawn %s: %v", path, err)
	}
	return p
}

// runToExit drives the scheduler until p exits and returns the status.
func (f *fixture) runToExit(p *kernel.Proc) int {
	f.t.Helper()
	if err := f.K.RunUntil(func() bool { return !p.Alive() }, 2_000_000); err != nil {
		st, _ := p.Status()
		f.t.Fatalf("process %d did not exit: %v (status %+v)", p.Pid, err, st)
	}
	return p.ExitStatus
}

func user() types.Cred { return types.UserCred(100, 10) }

const exit42 = `
	movi r0, SYS_exit
	movi r1, 42
	syscall
`

func TestSpawnExitStatus(t *testing.T) {
	f := boot(t)
	p := f.spawn("exit42", exit42, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 42 {
		t.Fatalf("status = %#x", status)
	}
}

func TestSystemProcsExist(t *testing.T) {
	f := boot(t)
	if p := f.K.Proc(0); p == nil || p.Comm != "sched" || p.VirtSize() != 0 {
		t.Fatal("pid 0 sched missing or has an address space")
	}
	if p := f.K.Proc(2); p == nil || p.Comm != "pageout" {
		t.Fatal("pid 2 pageout missing")
	}
}

func TestForkAndWait(t *testing.T) {
	f := boot(t)
	p := f.spawn("forker", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit	; child
	movi r1, 7
	syscall
parent:
	movi r0, SYS_wait
	movi r1, 0
	syscall			; r0 = pid, r1 = status
	shr r1, 8		; exit code of child
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 7 {
		t.Fatalf("parent status = %#x, want child's code 7", status)
	}
}

func TestVforkSharesAddressSpace(t *testing.T) {
	f := boot(t)
	p := f.spawn("vforker", `
	movi r0, SYS_vfork
	syscall
	cmpi r0, 0
	jne parent
	la r3, flag		; child: write the shared flag
	movi r4, 1
	st r4, [r3]
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	la r3, flag
	ld r4, [r3]
	mov r1, r4		; 1 if the child's store is visible
	movi r0, SYS_exit
	syscall
.data
flag:	.word 0
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 1 {
		t.Fatalf("status = %#x: vfork child's store was not visible to parent", status)
	}
}

func TestForkCopiesAddressSpace(t *testing.T) {
	f := boot(t)
	p := f.spawn("forkcow", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	la r3, flag		; child: write the (private) flag
	movi r4, 1
	st r4, [r3]
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	movi r0, SYS_wait	; reap first so the write surely happened
	movi r1, 0
	syscall
	la r3, flag
	ld r4, [r3]
	mov r1, r4		; 0: the child's store must NOT be visible
	movi r0, SYS_exit
	syscall
.data
flag:	.word 0
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x: fork child's store leaked into parent", status)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	f := boot(t)
	p := f.spawn("piper", `
	movi r0, SYS_pipe
	syscall			; r0 = read fd, r1 = write fd
	mov r6, r0		; save read fd
	mov r7, r1		; save write fd
	movi r0, SYS_write
	mov r1, r7
	la r2, msg
	movi r3, 5
	syscall
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 5
	syscall
	la r3, buf
	ldb r1, [r3+4]		; 'o' = 111
	movi r0, SYS_exit
	syscall
.data
msg:	.ascii "hello"
buf:	.space 8
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 'o' {
		t.Fatalf("status = %#x, want 'o'", status)
	}
}

func TestPipeBlocksAndWakes(t *testing.T) {
	f := boot(t)
	// Parent forks; the child writes to the pipe after spinning a while;
	// the parent's read must block and then complete.
	p := f.spawn("pipeblock", `
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	mov r7, r1
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r5, 200		; child: delay loop
spin:	addi r5, -1
	cmpi r5, 0
	jne spin
	movi r0, SYS_write
	mov r1, r7
	la r2, msg
	movi r3, 1
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	movi r0, SYS_read	; blocks until the child writes
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	mov r1, r0		; bytes read (1)
	movi r0, SYS_exit
	syscall
.data
msg:	.ascii "x"
buf:	.space 4
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 1 {
		t.Fatalf("status = %#x, want read of 1 byte", status)
	}
}

func TestBrkGrowsBreakSegment(t *testing.T) {
	f := boot(t)
	p := f.spawn("brker", `
	la r3, end		; current break end (bss base + bss size)
	mov r1, r3
	movi r2, 0		; + 64K
	movhi r2, 1
	add r1, r2
	mov r5, r1		; target end
	movi r0, SYS_brk
	syscall
	st r5, [r5-4]		; store into the new memory
	ld r1, [r5-4]
	sub r1, r5		; 0 on success
	movi r0, SYS_exit
	syscall
.bss
end:	.space 4
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x", status)
	}
}

func TestStackGrowsAutomatically(t *testing.T) {
	f := boot(t)
	p := f.spawn("stack", `
	movspr r3
	movi r4, 0		; 0x30000 below the stack pointer
	movhi r4, 3
	sub r3, r4
	movi r5, 99
	st r5, [r3]		; far below the mapping: must auto-grow
	ld r1, [r3]
	addi r1, -99		; 0 on success
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x", status)
	}
}

func TestExecReplacesImage(t *testing.T) {
	f := boot(t)
	f.install("/bin/second", exit42, 0o755, 0, 0)
	p := f.spawn("execer", `
	movi r0, SYS_exec
	la r1, path
	syscall
	movi r0, SYS_exit	; only reached if exec failed
	movi r1, 1
	syscall
.data
path:	.asciz "/bin/second"
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 42 {
		t.Fatalf("status = %#x, want 42 from the exec'd image", status)
	}
	if p.Comm != "second" {
		t.Fatalf("comm = %q", p.Comm)
	}
}

func TestExecENOENTAndENOEXEC(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/bin/notxout", []byte("#!/bin/sh"), 0o755, 0, 0)
	p := f.spawn("badexec", `
	movi r0, SYS_exec
	la r1, missing
	syscall			; fails; carry set, r0 = errno
	mov r5, r0
	movi r0, SYS_exec
	la r1, notexec
	syscall
	mov r1, r0		; ENOEXEC = 8
	shl r1, 8
	or r1, r5		; low byte ENOENT = 2
	movi r0, SYS_exit
	syscall
.data
missing: .asciz "/bin/nonesuch"
notexec: .asciz "/bin/notxout"
`, user())
	status := f.runToExit(p)
	_, code := kernel.WIfExited(status)
	if code != (8<<8|2)&0xFF && code != 8*16+2 { // exit code truncated to 8 bits: 0x02 expected low byte
		// The exit code keeps only the low byte: (ENOEXEC<<8|ENOENT)&0xFF == ENOENT.
		if code != 2 {
			t.Fatalf("exit code = %d", code)
		}
	}
}

func TestZombieAndReap(t *testing.T) {
	f := boot(t)
	// Parent forks and spins without waiting: the child becomes a zombie.
	p := f.spawn("nowait", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	jmp parent
`, user())
	var child *kernel.Proc
	err := f.K.RunUntil(func() bool {
		for _, q := range f.K.Procs() {
			if q.Parent == p && q.Zombie() {
				child = q
				return true
			}
		}
		return false
	}, 100000)
	if err != nil {
		t.Fatalf("no zombie child: %v", err)
	}
	if info := child.PSInfo(); info.State != 'Z' {
		t.Fatalf("zombie state = %c", info.State)
	}
	// Kill the parent: the zombie is reparented to init and reaped.
	f.K.PostSignal(p, types.SIGKILL)
	if err := f.K.RunUntil(func() bool { return !p.Alive() }, 100000); err != nil {
		t.Fatal(err)
	}
	if f.K.Proc(child.Pid) != nil {
		t.Fatal("orphan zombie was not reaped")
	}
}

func TestGetpidAndCreds(t *testing.T) {
	f := boot(t)
	p := f.spawn("ident", `
	movi r0, SYS_getuid
	syscall
	mov r5, r0		; ruid
	movi r0, SYS_getgid
	syscall
	mov r6, r0		; rgid
	movi r0, SYS_getpid
	syscall
	mov r7, r0		; pid
	mov r1, r5
	shl r1, 8
	or r1, r6		; (uid<<8)|gid ... uid=100 too big; use gid only
	mov r1, r6
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 10 {
		t.Fatalf("gid = %d, want 10", code)
	}
}

func TestTimeAdvances(t *testing.T) {
	f := boot(t)
	before := f.K.Now()
	p := f.spawn("timer", exit42, user())
	f.runToExit(p)
	if f.K.Now() <= before {
		t.Fatal("clock did not advance")
	}
}

func TestSleepSyscall(t *testing.T) {
	f := boot(t)
	p := f.spawn("sleeper", `
	movi r0, SYS_sleep
	movi r1, 500
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, user())
	start := f.K.Now()
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x", status)
	}
	if f.K.Now()-start < 500 {
		t.Fatalf("sleep returned after %d ticks, want >= 500", f.K.Now()-start)
	}
}

// Regression test: a sleep(2) cut short by a caught signal must not leave
// its deadline behind for the next sleep. The deadline used to be cleared
// only by a sleep that ran to completion, so the sleep(2000) below inherited
// the interrupted sleep(1000)'s deadline and returned after ~1000 ticks.
func TestSleepAfterEINTRStartsFresh(t *testing.T) {
	f := boot(t)
	p := f.spawn("resleeper", `
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
	movi r0, SYS_sleep
	movi r1, 1000
	syscall			; EINTR when SIGALRM arrives
	mov r5, r0
	movi r0, SYS_sleep
	movi r1, 2000
	syscall
	mov r1, r5		; the first sleep's errno
	movi r0, SYS_exit
	syscall
`, user())
	start := f.K.Now()
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != int(kernel.EINTR) {
		t.Fatalf("status = %#x, want first sleep -> EINTR", status)
	}
	if got := f.K.Now() - start; got < 2100 {
		t.Fatalf("exited after %d ticks, want >= 2100 (alarm 100 + sleep 2000)", got)
	}
}

// The deterministic scheduler wakes the sleepers on one channel in process-
// table order, whatever order they went to sleep in. Three children block
// reading one pipe in reverse pid order, and a single write wakes them all:
// the kernel-wide trace must show the wakes in ascending pid order.
func TestWakeAllPidOrder(t *testing.T) {
	f := boot(t)
	f.K.EnableKTraceAll(1 << 14)
	p := f.spawn("wakeorder", `
	movi r0, SYS_pipe
	syscall
	mov r6, r0		; read end
	mov r7, r1		; write end
	movi r5, 300		; first child's delay; each later child's is 100 less
fork:
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	je child
	addi r5, -100
	cmpi r5, 0
	jne fork
	movi r0, SYS_sleep	; parent: let every child block first
	movi r1, 600
	syscall
	movi r0, SYS_write	; one write wakes all three readers
	mov r1, r7
	la r2, msg
	movi r3, 3
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
child:
	movi r0, SYS_sleep
	mov r1, r5
	syscall
	movi r0, SYS_read	; sleeps: empty pipe
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
msg:	.ascii "xyz"
buf:	.space 4
`, user())
	f.runToExit(p)

	sysRead, sysWrite := int32(kernel.Predefs()["SYS_read"]), int32(kernel.Predefs()["SYS_write"])
	run, sleep := int32(kernel.LRun), int32(kernel.LSleep)
	inCall := map[int32]int32{} // pid -> system call it last entered
	var blocked, woken []int32
	inWrite := false
	for _, e := range f.K.KT.Events() {
		switch e.Kind {
		case ktrace.KSysEntry:
			inCall[e.Pid] = e.What
			inWrite = e.Pid == int32(p.Pid) && e.What == sysWrite
		case ktrace.KSysExit:
			if e.Pid == int32(p.Pid) {
				inWrite = false
			}
		case ktrace.KLWPState:
			switch {
			case e.What == sleep && e.A == uint32(run) && inCall[e.Pid] == sysRead:
				blocked = append(blocked, e.Pid)
			case inWrite && e.What == run && e.A == uint32(sleep):
				woken = append(woken, e.Pid)
			}
		}
	}
	if len(blocked) != 3 || !(blocked[0] > blocked[1] && blocked[1] > blocked[2]) {
		t.Fatalf("readers blocked in pid order %v, want three in descending pid order", blocked)
	}
	if len(woken) != 3 || !(woken[0] < woken[1] && woken[1] < woken[2]) {
		t.Fatalf("one write woke pids %v, want the three readers in ascending pid order", woken)
	}
}

func TestMmapMunmap(t *testing.T) {
	f := boot(t)
	p := f.spawn("mapper", `
	movi r0, SYS_mmap
	movi r1, 0		; any address
	movi r2, 0		; 64K
	movhi r2, 1
	movi r3, 3		; read|write
	movi r4, 0		; private anon
	syscall
	mov r6, r0		; base
	movi r5, 77
	st r5, [r6+128]
	ld r7, [r6+128]
	movi r0, SYS_munmap
	mov r1, r6
	movi r2, 0
	movhi r2, 1
	syscall
	mov r1, r7
	addi r1, -77		; 0 on success
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x", status)
	}
}

func TestENOSYSForUnknownSyscall(t *testing.T) {
	f := boot(t)
	p := f.spawn("badnum", `
	movi r0, 177		; unassigned number
	syscall
	mov r1, r0		; errno
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != int(kernel.ENOSYS) {
		t.Fatalf("errno = %d, want ENOSYS", code)
	}
}

func TestFileIOFromProcess(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/in", []byte("Q"), 0o666, 0, 0)
	p := f.spawn("fileio", `
	movi r0, SYS_open
	la r1, inpath
	movi r2, 1		; O_RDONLY
	syscall
	mov r6, r0
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	movi r0, SYS_creat
	la r1, outpath
	movi r2, 0x1B6		; 0666
	syscall
	mov r7, r0
	movi r0, SYS_write
	mov r1, r7
	la r2, buf
	movi r3, 1
	syscall
	movi r0, SYS_close
	mov r1, r7
	syscall
	la r3, buf
	ldb r1, [r3]
	movi r0, SYS_exit
	syscall
.data
inpath:	 .asciz "/tmp/in"
outpath: .asciz "/tmp/out"
buf:	 .space 4
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 'Q' {
		t.Fatalf("code = %d", code)
	}
	cl := &vfs.Client{NS: f.K.NS, Cred: types.RootCred()}
	data, err := cl.ReadFile("/tmp/out")
	if err != nil || string(data) != "Q" {
		t.Fatalf("out = %q, %v", data, err)
	}
}
