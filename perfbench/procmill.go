package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/kernel"
	"repro/internal/types"
)

// proc_mill: the process model with no controller attached. Each mill
// process runs a fixed program — per iteration a getpid, a brk that grows
// the heap by a page and a store to that fresh page (a zero-fill fault);
// every 8th iteration a brk that shrinks the heap back, so a process never
// holds more than 8 heap pages; every 16th iteration a fork whose child dirties a data page still shared
// with the executable (a copy-on-write fault; fork itself copies the
// parent's private pages) and exits 7, which the parent waits for and
// checks — and then exits with its own seeded status. The benchmark respawns each process as it exits,
// so the population stays at 16 on the SMP scheduler with two CPUs. An op
// is one system call.

const (
	millIters = 64
	millKids  = millIters / 16
	// Every lifetime makes the same system calls: per iteration getpid and
	// brk, every 8th iteration a shrinking brk, per child a fork and a wait
	// in the parent and an exit in the child, and the parent's own exit.
	millOpsPerLife   = 2*millIters + millIters/8 + 3*millKids + 1
	millPagesPerLife = millIters + millKids
	millChildStatus  = 7
)

func millProg(status, childWant int) string {
	return fmt.Sprintf(`
	la r6, heap
	addi r6, 4095
	li r3, 0xFFFFF000
	and r6, r3		; r6 = the first page at or above the break base
	mov r5, r6		; r5 = the next fresh page
	movi r7, 0
loop:	movi r0, SYS_getpid
	syscall
	movi r0, SYS_brk
	mov r1, r5
	addi r1, 4096
	syscall			; grow the break by one page
	st r7, [r5]		; a store to the fresh page
	addi r5, 4096
	addi r7, 1
	mov r2, r7
	movi r3, 7
	and r2, r3
	cmpi r2, 0
	jne next
	movi r0, SYS_brk
	mov r1, r6
	syscall			; every 8th: shrink the break back, dropping the pages
	mov r5, r6
	mov r2, r7
	movi r3, 15
	and r2, r3
	cmpi r2, 0
	jne next
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	la r4, shared
	st r7, [r4]		; child: dirty a data page still shared with the image (copy-on-write)
	movi r0, SYS_exit
	movi r1, %d
	syscall
parent:	movi r0, SYS_wait
	movi r1, 0
	syscall
	li r2, %d
	cmp r1, r2		; the child's wait status
	jne bad
next:	cmpi r7, %d
	jne loop
	movi r0, SYS_exit
	movi r1, %d
	syscall
bad:	movi r0, SYS_exit
	movi r1, 99
	syscall
.data
.align 4
shared:	.word 0
.bss
heap:	.space 4
`, millChildStatus, childWant<<8, millIters, status)
}

type millSlot struct {
	path   string
	status int // expected exit code
	cred   types.Cred
	p      *kernel.Proc
	born   time.Time
}

type procMill struct {
	cfg     config
	tr      *tracer
	s       *repro.System
	kc      *kernelCounters
	slots   []*millSlot
	retired int64 // ops of reaped lifetimes
}

func newProcMill(cfg config, tr *tracer) bench { return &procMill{cfg: cfg, tr: tr} }

func (b *procMill) setup() error {
	b.s = repro.NewSystem(repro.Options{NCPU: 2})
	rng := rand.New(rand.NewSource(b.cfg.seed))
	n := 16
	if b.cfg.tiny {
		n = 4
	}
	childWant := millChildStatus
	if b.cfg.breakCheck {
		childWant++
	}
	statuses := rng.Perm(80)
	for i := 0; i < n; i++ {
		sl := &millSlot{
			path:   fmt.Sprintf("/bin/mill%d", i),
			status: 10 + statuses[i],
			cred:   types.UserCred(100+i%8, 10),
		}
		if err := b.s.Install(sl.path, millProg(sl.status, childWant), 0o755, 0, 0); err != nil {
			return err
		}
		if err := b.spawn(sl); err != nil {
			return err
		}
		b.slots = append(b.slots, sl)
	}
	if b.tr != nil {
		b.kc = newKernelCounters(b.s.K)
	}
	return nil
}

func (b *procMill) spawn(sl *millSlot) error {
	p, err := b.s.Spawn(sl.path, []string{sl.path[5:]}, sl.cred)
	if err != nil {
		return err
	}
	sl.p, sl.born = p, time.Now()
	return nil
}

// opsNow counts the system calls made so far: the reaped lifetimes' plus
// the live ones' (each forked child makes exactly one, its exit).
func (b *procMill) opsNow() int64 {
	n := b.retired
	for _, sl := range b.slots {
		if sl.p != nil {
			n += sl.p.Usage.Syscalls + sl.p.Usage.ForkedKids
		}
	}
	return n
}

// reap checks every process that has exited since the last pass and,
// when respawn is set, starts its next lifetime.
func (b *procMill) reap(m *measure, respawn bool) error {
	for _, sl := range b.slots {
		if sl.p == nil || sl.p.Alive() {
			continue
		}
		p := sl.p
		life := time.Since(sl.born)
		b.retired += p.Usage.Syscalls + p.Usage.ForkedKids
		sl.p = nil
		if p.ExitStatus != sl.status<<8 {
			m.fail("%s pid %d exited with status %#x, want %#x", sl.path, p.Pid, p.ExitStatus, sl.status<<8)
		} else {
			m.lat = append(m.lat, us(life)/millOpsPerLife)
			m.userBytes += millPagesPerLife * 4096
		}
		if respawn {
			if err := b.spawn(sl); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *procMill) run(deadline time.Time, m *measure) error {
	ops0 := b.opsNow()
	var k0 kcount
	if b.kc != nil {
		k0 = b.kc.now()
	}
	for time.Now().Before(deadline) {
		ok := b.tr.begin(kStep)
		b.s.Step()
		b.tr.end(ok)
		if err := b.reap(m, true); err != nil {
			return err
		}
	}
	m.ops += b.opsNow() - ops0
	if b.kc != nil {
		m.kc.add(b.kc.now().sub(k0))
	}
	return nil
}

func (b *procMill) drain(m *measure) error {
	for passes := 0; ; passes++ {
		if err := b.reap(m, false); err != nil {
			return err
		}
		live := false
		for _, sl := range b.slots {
			live = live || sl.p != nil
		}
		if !live {
			break
		}
		if passes > 1_000_000 {
			return fmt.Errorf("mill processes did not finish")
		}
		b.s.Step()
	}
	if err := b.s.K.CheckInvariants(); err != nil {
		m.fail("invariants: %v", err)
	}
	return nil
}

func (b *procMill) close() {
	if b.s != nil {
		b.s.Close()
		b.s = nil
	}
}
