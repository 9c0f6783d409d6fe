package kernel

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/ktrace"
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
	w.l = &LWP{}
	w.l.CPU.AS = as
	w.curAS.Store(as)
	w.lockGlobal()
	if got := w.curAS.Load(); got != nil {
		t.Fatal("big-lock acquisition left the address space published")
	}
	w.unlock()
	if got := w.curAS.Load(); got != as {
		t.Fatal("big-lock release did not republish the running space")
	}
	w.l = nil
	w.curAS.Store(nil)
}

// TestOneCPUStepsInline pins the NCPU=1 shape of the single phase machine:
// Step drives the kernel's one CPU on the caller's goroutine, so a run that
// spins, grows and shrinks its break (every brk reaches shootdown) starts
// no goroutine and builds no SMP state, and shootdown falls through even
// while the CPU publishes the dying space — the initiator is that CPU.
// Nothing reads a published space at NCPU=1, so the CPU publishes none:
// not when a quantum starts, and not on the return to user level, which a
// trace tap at every brk entry drives the way TestExecRepublishesNewSpace
// does.
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
		t.Fatalf("NCPU=1 built SMP state (NCPU() = %d)", k.NCPU())
	}
	w := k.cpus[0]
	p.SetKTrace(64)
	brks, published := 0, 0
	k.KTTap = func(e *ktrace.Event) {
		if e.Kind == ktrace.KSysEntry && e.What == SysBrk {
			brks++
			w.release()
			if w.curAS.Load() != nil {
				published++
			}
			w.lockGlobal()
		}
	}
	before := runtime.NumGoroutine()
	k.Run(200)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NCPU=1 Steps started goroutines: %d -> %d", before, after)
	}
	if p.LWPs[0].CPU.Regs.R[5] == 0 || brks == 0 {
		t.Fatalf("the inline CPU ran nothing (%d brk calls)", brks)
	}
	if published != 0 {
		t.Fatalf("the inline CPU published its space on %d of %d returns to user level", published, brks)
	}
	if w.curAS.Load() != nil {
		t.Fatal("the inline CPU still publishes an address space between Steps")
	}
	k.KTTap = nil
	w.enter(p.LWPs[0])
	if w.curAS.Load() != nil {
		t.Fatal("the inline CPU published its space at the start of a quantum")
	}
	w.leave()

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

// TestExecRepublishesNewSpace: a CPU whose process execs mid-quantum must
// publish the new address space when it returns to user level, or a
// shootdown of that space would not wait for it. The quantum runs on the
// first CPU of an NCPU=2 kernel, driven directly; a trace tap at the first
// system call after exec releases the CPU's locks the way the return to
// user level does, reads what it publishes, and takes the global lock back.
func TestExecRepublishesNewSpace(t *testing.T) {
	fs := memfs.New(nil)
	k := New(vfs.NewNS(fs.Root()), Config{NCPU: 2})
	defer k.Shutdown()
	for path, src := range map[string]string{
		"/a": `
	movi r0, SYS_exec
	la r1, path
	syscall
	movi r0, SYS_exit
	movi r1, 1
	syscall
.data
path:	.asciz "/b"
`,
		"/b": `
	movi r0, SYS_getpid
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
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
	p, err := k.Spawn("/a", nil, types.UserCred(100, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	entry := p.AS
	p.SetKTrace(64)
	w := k.cpus[0]
	var published, want *mem.AS
	k.KTTap = func(e *ktrace.Event) {
		if e.Kind == ktrace.KSysEntry && e.What == SysGetpid && published == nil {
			want = p.AS
			w.release()
			published = w.curAS.Load()
			w.lockGlobal()
		}
	}
	l := p.LWPs[0]
	for i := 0; i < 100 && p.Alive(); i++ {
		k.runLWPOn(w, l, 10)
	}
	switch {
	case want == nil:
		t.Fatal("the exec'd image never made its system call")
	case want == entry:
		t.Fatal("exec kept the entry address space")
	case published != want:
		t.Fatalf("CPU publishes %p after exec, want the new space %p (entry space %p)", published, want, entry)
	}
}
