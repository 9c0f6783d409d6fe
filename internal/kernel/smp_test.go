package kernel

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// TestShootdownBarrier exercises the cross-CPU TLB invalidation barrier
// mechanics directly: shootdown must spin while any CPU publishes the dying
// address space and return as soon as none does, and the big-lock protocol
// must withdraw the published space before blocking (the property that makes
// the barrier deadlock-free).
func TestShootdownBarrier(t *testing.T) {
	k := New(vfs.NewNS(nil), Config{NCPU: 3})
	as := mem.NewAS(4096)
	other := mem.NewAS(4096)

	// No publisher: the barrier falls through immediately.
	k.shootdown(as)

	// A CPU publishing a different space does not hold the barrier.
	k.cpus[1].curAS.Store(other)
	k.shootdown(as)
	k.cpus[1].curAS.Store(nil)

	// A CPU publishing the target space holds the barrier until it
	// withdraws; the initiator must return promptly afterwards.
	w := k.cpus[2]
	w.curAS.Store(as)
	done := make(chan struct{})
	go func() {
		k.shootdown(as)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("shootdown returned while a CPU still published the space")
	case <-time.After(10 * time.Millisecond):
	}
	w.curAS.Store(nil)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shootdown did not return after the publisher withdrew")
	}

	// The lock protocol: taking the big lock withdraws the published
	// space (so a lock-holding shootdown initiator cannot spin on a CPU
	// that is itself waiting for the lock), and releasing republishes it.
	w.as = as
	w.curAS.Store(as)
	w.lockGlobal()
	if got := w.curAS.Load(); got != nil {
		t.Fatal("big-lock acquisition left the address space published")
	}
	w.unlock()
	if got := w.curAS.Load(); got != as {
		t.Fatal("big-lock release did not republish the running space")
	}
	w.as = nil
	w.curAS.Store(nil)
}

// TestOneCPUStepsInline pins the NCPU=1 shape of the single phase machine:
// Step drives the kernel's one CPU on the caller's goroutine, so a run that
// spins, grows and shrinks its break (every brk reaches shootdown) starts
// no goroutine and builds no run queue, and shootdown falls through even
// while the CPU publishes the dying space — the initiator is that CPU.
func TestOneCPUStepsInline(t *testing.T) {
	fs := memfs.New(nil)
	k := New(vfs.NewNS(fs.Root()), Config{NCPU: 1})
	defer k.Shutdown()
	img, err := asm.Assemble(`
	la r6, heap
	addi r6, 4095
	li r3, 0xFFFFF000
	and r6, r3
loop:	movi r0, SYS_brk
	mov r1, r6
	addi r1, 4096
	syscall
	st r5, [r6]
	movi r0, SYS_brk
	mov r1, r6
	syscall
	addi r5, 1
	jmp loop
.bss
heap:	.space 4
`, &asm.Options{Predef: Predefs()})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/spin", img.Marshal(), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn("/spin", nil, types.UserCred(100, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if k.NCPU() != 1 || k.smp != nil {
		t.Fatalf("NCPU=1 built run queues (NCPU() = %d)", k.NCPU())
	}
	before := runtime.NumGoroutine()
	k.Run(200)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NCPU=1 Steps started goroutines: %d -> %d", before, after)
	}
	if p.LWPs[0].CPU.Regs.R[5] == 0 {
		t.Fatal("the inline CPU ran nothing")
	}
	if k.cpus[0].curAS.Load() != nil {
		t.Fatal("the inline CPU still publishes an address space between Steps")
	}

	w := k.cpus[0]
	w.curAS.Store(p.AS)
	done := make(chan struct{})
	go func() {
		k.shootdown(p.AS)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shootdown spun on the only CPU at NCPU=1")
	}
	w.curAS.Store(nil)
}
