package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// The fault matrix: every registered injection site is armed through the
// /procx/faults control file, the planned fault is driven to its trigger, and
// the revealed error path is checked three ways — the victim sees the right
// errno (or the right signal), the site's injection counter advanced, and the
// kernel's invariants hold afterwards. The storm test then runs random
// seeded plans over all sites at once.

// armFaults writes control text to /procx/faults under root credentials,
// exercising the same path rfsctl and remote tooling use.
func armFaults(t *testing.T, s *repro.System, text string) {
	t.Helper()
	f, err := s.Client(types.RootCred()).Open("/procx/faults", vfs.OWrite)
	if err != nil {
		t.Fatalf("open /procx/faults: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte(text)); err != nil {
		t.Fatalf("write /procx/faults %q: %v", text, err)
	}
}

// faultBoot builds a system with tracing on and one victim process spawned
// (but not yet run). Sites are armed by the caller after the spawn, because
// the spawn itself touches memfs and the new address space.
func faultBoot(t *testing.T, prog string) (*repro.System, *kernel.Proc) {
	t.Helper()
	fault.Guard(t)
	s := repro.NewSystem()
	s.K.EnableKTraceAll(1 << 18)
	if err := s.Install("/bin/victim", prog, 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	p, err := s.Spawn("/bin/victim", []string{"victim"}, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// assertInvariants runs the post-storm invariant checker.
func assertInvariants(t *testing.T, s *repro.System) {
	t.Helper()
	if err := s.K.CheckInvariants(); err != nil {
		t.Fatalf("kernel invariants violated: %v", err)
	}
}

// assertInjected demands that the named site actually fired.
func assertInjected(t *testing.T, name string) {
	t.Helper()
	site := fault.Default.Lookup(name)
	if site == nil {
		t.Fatalf("site %s not registered", name)
	}
	if site.Injected() == 0 {
		t.Fatalf("site %s never injected (hits=%d)", name, site.Hits())
	}
}

// assertSysErrno demands a KSysExit event for (pid, sysnum) carrying errno.
func assertSysErrno(t *testing.T, s *repro.System, pid, sysnum int, want kernel.Errno) {
	t.Helper()
	evs, err := ktrace.Decode(readProcFile(t, s, "/procx/trace"))
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	for _, e := range evs {
		if e.Kind == ktrace.KSysExit && int(e.Pid) == pid && int(e.What) == sysnum {
			if e.B == uint32(want) {
				return
			}
		}
	}
	t.Fatalf("no %s exit with errno %v for pid %d in the trace",
		kernel.SyscallName(sysnum), want, pid)
}

// assertKilledBy demands the wait status records death by sig.
func assertKilledBy(t *testing.T, status, sig int) {
	t.Helper()
	ok, got, _ := kernel.WIfSignaled(status)
	if !ok || got != sig {
		t.Fatalf("status = %#x, want killed by %s", status, types.SigName(sig))
	}
}

// exitOK is the common tail: exit(0).
const exitOK = `
	movi r0, SYS_exit
	movi r1, 0
	syscall
`

func TestFaultMatrixKernelFork(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_fork
	syscall
`+exitOK)
	armFaults(t, s, fmt.Sprintf("kernel.fork nth=1 pid=%d", p.Pid))
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("victim status = %#x", status)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysFork, kernel.EAGAIN)
	assertInjected(t, "kernel.fork")
	assertInvariants(t, s)
}

func TestFaultMatrixKernelFD(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_creat
	la r1, path
	movi r2, 420
	syscall
`+exitOK+`
.data
path:	.asciz "/victim-out"
`)
	armFaults(t, s, fmt.Sprintf("kernel.fd nth=1 pid=%d", p.Pid))
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysCreat, kernel.EMFILE)
	assertInjected(t, "kernel.fd")
	assertInvariants(t, s)
}

func TestFaultMatrixKernelPipe(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_pipe
	syscall
`+exitOK)
	armFaults(t, s, fmt.Sprintf("kernel.pipe nth=1 pid=%d", p.Pid))
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysPipe, kernel.ENFILE)
	assertInjected(t, "kernel.pipe")
	assertInvariants(t, s)
}

func TestFaultMatrixKernelExec(t *testing.T) {
	fault.Guard(t)
	s := repro.NewSystem()
	if err := s.Install("/bin/victim", exitOK, 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The next address-space build — our spawn — fails; the process slot is
	// rolled back and the spawn reports the error.
	armFaults(t, s, "kernel.exec nth=1")
	if _, err := s.Spawn("/bin/victim", []string{"victim"}, types.RootCred()); err == nil {
		t.Fatal("spawn succeeded with kernel.exec armed")
	}
	assertInjected(t, "kernel.exec")
	assertInvariants(t, s)
	// The system still works once the plan is spent.
	if p, err := s.Spawn("/bin/victim", []string{"victim"}, types.RootCred()); err != nil {
		t.Fatalf("respawn after spent plan: %v", err)
	} else if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
}

func TestFaultMatrixMemBrk(t *testing.T) {
	s, p := faultBoot(t, `
	la r1, end
	movi r2, 0
	movhi r2, 1
	add r1, r2
	movi r0, SYS_brk
	syscall
`+exitOK+`
.bss
end:	.space 4
`)
	armFaults(t, s, fmt.Sprintf("mem.brk nth=1 pid=%d", p.Pid))
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysBrk, kernel.ENOMEM)
	assertInjected(t, "mem.brk")
	assertInvariants(t, s)
}

func TestFaultMatrixMemMap(t *testing.T) {
	s, p := faultBoot(t, `
	movi r1, 0
	movi r2, 0
	movhi r2, 1
	movi r3, 3
	movi r4, 0
	movi r0, SYS_mmap
	syscall
`+exitOK)
	armFaults(t, s, fmt.Sprintf("mem.map nth=1 pid=%d", p.Pid))
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysMmap, kernel.ENOMEM)
	assertInjected(t, "mem.map")
	assertInvariants(t, s)
}

func TestFaultMatrixMemPage(t *testing.T) {
	// Storing into a never-touched bss page needs a fresh page frame; with
	// the allocation refused the store becomes an access fault and the
	// victim dies by SIGSEGV — never a Go panic, never a leak.
	s, p := faultBoot(t, `
	la r3, buf
	movi r4, 7
	st r4, [r3]
`+exitOK+`
.bss
buf:	.space 4096
`)
	armFaults(t, s, fmt.Sprintf("mem.page pid=%d", p.Pid))
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	assertKilledBy(t, status, types.SIGSEGV)
	assertInjected(t, "mem.page")
	assertInvariants(t, s)
}

func TestFaultMatrixMemCOW(t *testing.T) {
	// The first store into the file-backed data segment must copy the page;
	// refusing the copy kills the victim with SIGSEGV.
	s, p := faultBoot(t, `
	la r3, word
	movi r4, 7
	st r4, [r3]
`+exitOK+`
.data
word:	.asciz "abcd"
`)
	armFaults(t, s, fmt.Sprintf("mem.cow pid=%d", p.Pid))
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	assertKilledBy(t, status, types.SIGSEGV)
	assertInjected(t, "mem.cow")
	assertInvariants(t, s)
}

func TestFaultMatrixMemStack(t *testing.T) {
	// A store far below the stack would normally auto-grow the mapping;
	// with growth refused it is a bounds fault and SIGSEGV.
	s, p := faultBoot(t, `
	movspr r3
	movi r4, 0
	movhi r4, 3
	sub r3, r4
	movi r5, 99
	st r5, [r3]
`+exitOK)
	armFaults(t, s, fmt.Sprintf("mem.stack pid=%d", p.Pid))
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	assertKilledBy(t, status, types.SIGSEGV)
	assertInjected(t, "mem.stack")
	assertInvariants(t, s)
}

func TestFaultMatrixMemfsCreate(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_creat
	la r1, path
	movi r2, 420
	syscall
`+exitOK+`
.data
path:	.asciz "/victim-out"
`)
	// memfs operations are not process-attributed; an unscoped one-shot
	// plan armed after the spawn hits the victim's creat.
	armFaults(t, s, "memfs.create nth=1")
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysCreat, kernel.ENOSPC)
	assertInjected(t, "memfs.create")
	assertInvariants(t, s)
}

func TestFaultMatrixMemfsRead(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_open
	la r1, path
	movi r2, 1
	syscall
	mov r1, r0
	la r2, buf
	movi r3, 4
	movi r0, SYS_read
	syscall
`+exitOK+`
.data
path:	.asciz "/data"
.bss
buf:	.space 4
`)
	if err := s.FS.WriteFile("/data", []byte("payload"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	armFaults(t, s, "memfs.read nth=1")
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysRead, kernel.EIO)
	assertInjected(t, "memfs.read")
	assertInvariants(t, s)
}

func TestFaultMatrixMemfsWrite(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_creat
	la r1, path
	movi r2, 420
	syscall
	mov r1, r0
	la r2, msg
	movi r3, 1
	movi r0, SYS_write
	syscall
`+exitOK+`
.data
path:	.asciz "/victim-out"
msg:	.ascii "x"
`)
	armFaults(t, s, "memfs.write nth=1")
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	assertSysErrno(t, s, p.Pid, kernel.SysWrite, kernel.EIO)
	assertInjected(t, "memfs.write")
	assertInvariants(t, s)
}

func TestFaultMatrixProcfsIoctl(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_pause
	syscall
`+exitOK)
	armFaults(t, s, "procfs.ioctl nth=1")
	f, err := s.OpenProc(p.Pid, vfs.ORead, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var maps []procfs.PrMap
	if err := f.Ioctl(procfs.PIOCMAP, &maps); err != vfs.ErrAgain {
		t.Fatalf("PIOCMAP with procfs.ioctl armed: %v, want EAGAIN", err)
	}
	// The plan is spent; the same ioctl now succeeds.
	if err := f.Ioctl(procfs.PIOCMAP, &maps); err != nil {
		t.Fatalf("PIOCMAP after spent plan: %v", err)
	}
	assertInjected(t, "procfs.ioctl")
	assertInvariants(t, s)
}

// TestFaultMatrixProcfsSnap arms the batched snapshot's scratch allocation:
// PIOCSNAP on the /proc root surfaces EAGAIN, the caller retries, the retry
// succeeds with a full record set. The site carries no process context, so
// the plan is unscoped.
func TestFaultMatrixProcfsSnap(t *testing.T) {
	s, p := faultBoot(t, `
	movi r0, SYS_pause
	syscall
`+exitOK)
	s.Run(2)
	armFaults(t, s, "procfs.snap nth=1")
	f, err := s.Client(types.RootCred()).Open("/proc", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sn procfs.PrSnap
	if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != vfs.ErrAgain {
		t.Fatalf("PIOCSNAP with procfs.snap armed: %v, want EAGAIN", err)
	}
	if len(sn.Procs) != 0 {
		t.Fatalf("failed snapshot left %d records behind", len(sn.Procs))
	}
	// The plan is spent; the retry fills the records.
	if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
		t.Fatalf("PIOCSNAP after spent plan: %v", err)
	}
	found := false
	for _, rec := range sn.Procs {
		found = found || rec.Info.Pid == p.Pid
	}
	if !found {
		t.Fatal("victim missing from the retried snapshot")
	}
	assertInjected(t, "procfs.snap")
	assertInvariants(t, s)
}

// ioProg opens, reads, creates and writes; every error is shrugged off and
// the program exits — a file-system workload for the storm.
const ioProg = `
	movi r0, SYS_open
	la r1, rpath
	movi r2, 1
	syscall
	mov r1, r0
	la r2, buf
	movi r3, 4
	movi r0, SYS_read
	syscall
	movi r0, SYS_creat
	la r1, wpath
	movi r2, 420
	syscall
	mov r1, r0
	la r2, buf
	movi r3, 4
	movi r0, SYS_write
	syscall
	movi r0, SYS_pipe
	syscall
	la r1, end
	movi r2, 0
	movhi r2, 1
	add r1, r2
	movi r0, SYS_brk
	syscall
	la r3, scratch
	movi r4, 7
	st r4, [r3]
` + exitOK + `
.data
rpath:	.asciz "/data"
wpath:	.asciz "/storm-out"
.bss
buf:	.space 8
scratch:	.space 4096
end:	.space 4
`

// brkProg is a bounded brk mill: 64 times, grow the break from its base to
// one page, store to that fresh page (a zero-fill fault) and shrink back to
// the base, which leaves the break segment empty. Each iteration moves the
// address-space generation three times, so the TLB is reset and refilled
// around the injected faults, and a refused brk is survived (the store is
// skipped) so the process keeps running past the injection that triggers
// the invariant check.
const brkProg = `
	la r6, heap
	addi r6, 4095
	li r3, 0xFFFFF000
	and r6, r3		; r6 = the first page at or above the break base
	movi r7, 64
loop:	movi r0, SYS_brk
	mov r1, r6
	addi r1, 4096
	syscall			; grow the break to one page
	cmpi r0, 0
	jne next		; refused (ENOMEM): no fresh page to store to
	st r7, [r6]		; a store to the fresh page
next:	movi r0, SYS_brk
	mov r1, r6
	syscall			; shrink back to the base
	addi r7, -1
	cmpi r7, 0
	jne loop
` + exitOK + `
.bss
heap:	.space 4
`

// TestFaultStorm arms every registered site with a seeded probabilistic plan
// and drives mixed process/file/brk workloads through the storm, running the
// kernel-wide invariant checker after every injected fault. Nothing may
// panic, leak or corrupt — processes may only fail with sane errnos or die
// by signal.
func TestFaultStorm(t *testing.T) {
	fault.Guard(t)
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		fault.Default.Reset()
		s := repro.NewSystem()
		s.K.EnableKTraceAll(1 << 16)
		if err := s.Install("/bin/family", familyProg, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Install("/bin/io", ioProg, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Install("/bin/brk", brkProg, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.FS.WriteFile("/data", []byte("payload"), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
		var procs []*kernel.Proc
		for i := 0; i < 4; i++ {
			path, cred := "/bin/family", types.UserCred(100+i, 10)
			if i%2 == 1 {
				// The io workload creates files in the root directory, so
				// it runs as root; a permission refusal would bypass the
				// memfs sites it exists to exercise.
				path, cred = "/bin/io", types.RootCred()
			}
			p, err := s.Spawn(path, []string{fmt.Sprintf("storm%d", i)}, cred)
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p)
		}
		p, err := s.Spawn("/bin/brk", []string{"stormbrk"}, types.UserCred(104, 10))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
		// Arm the whole catalog: distinct seeds per site per round, a small
		// per-mill rate, and a budget so the drain can finish.
		plan := ""
		for i, name := range fault.Default.SiteNames() {
			plan += fmt.Sprintf("%s prob=120 seed=%d count=8\n", name, round*131+i*17+1)
		}
		armFaults(t, s, plan)

		// An observer sweeps the table with PIOCSNAP while the storm rages:
		// the batched path must fail only with EAGAIN (its own site) and
		// never trip over mid-reap carcasses.
		snapF, err := s.Client(types.RootCred()).Open("/proc", vfs.ORead)
		if err != nil {
			t.Fatal(err)
		}
		alive := func() bool {
			for _, p := range procs {
				if p.Alive() {
					return true
				}
			}
			return false
		}
		last := uint64(0)
		var sn procfs.PrSnap
		for steps := 0; alive() && steps < 2_000_000; steps++ {
			s.Step()
			if steps%64 == 0 {
				switch err := snapF.Ioctl(procfs.PIOCSNAP, &sn); err {
				case nil, vfs.ErrAgain:
				default:
					t.Fatalf("round %d step %d: PIOCSNAP under storm: %v", round, steps, err)
				}
			}
			if inj := fault.Default.TotalInjected(); inj != last {
				last = inj
				assertInvariants(t, s)
			}
		}
		snapF.Close()
		if last == 0 {
			t.Fatalf("round %d: the storm injected nothing — the test proved nothing", round)
		}
		// Disarm and drain: every workload process must come to rest.
		fault.Default.Reset()
		for i, p := range procs {
			if _, err := s.WaitExit(p); err != nil {
				t.Fatalf("round %d: storm process %d stuck: %v", round, i, err)
			}
		}
		assertInvariants(t, s)
		if err := s.K.CheckInvariants(); err != nil {
			t.Fatalf("round %d: post-drain invariants: %v", round, err)
		}
	}
}
