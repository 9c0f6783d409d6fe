package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vcpu"
)

// These tests pin the TLB invalidation protocol end to end: each one warms
// the vCPU's translation cache on a page, changes the mapping state through
// a different kernel path, and then proves the very next access sees the new
// state. A stale translation would let the guarded access slip through (or
// read dropped storage), flipping the observable outcome.

// A store that worked before mprotect must fault immediately after: a stale
// writable TLB entry would let it through and the program would exit 7.
func TestTLBInvalidateMprotect(t *testing.T) {
	f := boot(t)
	p := f.spawn("tlbprot", `
	movi r0, SYS_mmap
	movi r1, 0
	movi r2, 4096
	movi r3, 3		; read|write
	movi r4, 0		; private anon
	syscall
	mov r6, r0
	movi r5, 1
	st r5, [r6]		; materialize the page (slow path)
	st r5, [r6+4]		; warm a writable TLB entry
	movi r0, SYS_mprotect
	mov r1, r6
	movi r2, 4096
	movi r3, 1		; read-only
	syscall
	st r5, [r6+8]		; must fault: the cached entry is stale
	movi r0, SYS_exit
	movi r1, 7
	syscall
`, user())
	status := f.runToExit(p)
	if sig, num, _ := kernel.WIfSignaled(status); !sig || num != types.SIGSEGV {
		t.Fatalf("status = %#x, want SIGSEGV death (exit 7 means a stale TLB entry let a store through mprotect)", status)
	}
}

// A load that worked before munmap must fault immediately after.
func TestTLBInvalidateMunmap(t *testing.T) {
	f := boot(t)
	p := f.spawn("tlbunmap", `
	movi r0, SYS_mmap
	movi r1, 0
	movi r2, 4096
	movi r3, 3
	movi r4, 0
	syscall
	mov r6, r0
	movi r5, 9
	st r5, [r6]
	ld r7, [r6]		; warm the TLB entry
	movi r0, SYS_munmap
	mov r1, r6
	movi r2, 4096
	syscall
	ld r7, [r6]		; must fault: the page is gone
	movi r0, SYS_exit
	movi r1, 7
	syscall
`, user())
	status := f.runToExit(p)
	if sig, num, _ := kernel.WIfSignaled(status); !sig || num != types.SIGSEGV {
		t.Fatalf("status = %#x, want SIGSEGV death (exit 7 means a stale TLB entry survived munmap)", status)
	}
}

// Shrinking the break drops its private pages; growing it back must produce
// fresh zero-fill. A stale TLB entry still aliases the dropped page's
// storage and would read the old value (99) instead of 0.
func TestTLBInvalidateBrk(t *testing.T) {
	f := boot(t)
	p := f.spawn("tlbbrk", `
	la r6, heap
	movi r5, 99
	st r5, [r6]		; materialize the break page
	ld r7, [r6]		; warm the TLB entry (reads 99)
	movi r0, SYS_brk
	mov r1, r6
	syscall			; shrink the break to zero length
	movi r0, SYS_brk
	mov r1, r6
	addi r1, 4096
	syscall			; grow it back: fresh zero-fill page
	ld r4, [r6]		; must read 0, not the dropped 99
	movi r0, SYS_exit
	mov r1, r4
	syscall
.bss
heap:	.space 8
`, user())
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x, want exit 0 (exit 99 means a stale TLB entry read a dropped break page)", status)
	}
}

// Automatic stack growth happens on the slow path and must invalidate any
// negatively-cached translation for the grown page, so subsequent fast-path
// accesses see the new mapping.
func TestTLBInvalidateStackGrowth(t *testing.T) {
	// Quantum 1 so the growth stat is observable between scheduler steps;
	// with the default quantum the whole program runs inside one Step and
	// the address space is gone (exit) before the test can look.
	f := bootWith(t, 1)
	p := f.spawn("tlbstack", `
	movi r6, 0
	movhi r6, 0x7FFE	; below the initial stack mapping, in the growth region
	movi r5, 123
	st r5, [r6]		; grows the stack
	ld r7, [r6]		; fast path over the grown page
	st r7, [r6+4]
	ld r4, [r6+4]
	sub r4, r5		; 0 if the value round-tripped
	movi r0, SYS_exit
	mov r1, r4
	syscall
`, user())
	grew := false
	if err := f.K.RunUntil(func() bool {
		if p.AS != nil && p.AS.Stats.GrowStack > 0 {
			grew = true
		}
		return !p.Alive()
	}, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if !grew {
		t.Fatal("stack did not grow: the test did not exercise the growth path")
	}
	if ok, code := kernel.WIfExited(p.ExitStatus); !ok || code != 0 {
		t.Fatalf("status = %#x, want exit 0", p.ExitStatus)
	}
}

// Poking the text of a spinning process through ptrace must invalidate the
// instruction-fetch translation: the process escapes its jmp-to-self only if
// the very next fetch sees the poked NOP.
func TestTLBInvalidatePokeText(t *testing.T) {
	f := boot(t)
	p := f.spawn("tlbpoke", `
spin:	jmp spin
	movi r0, SYS_exit
	movi r1, 5
	syscall
`, user())
	f.K.Run(20) // warm the fetch translation on the text page
	c := f.K.PtraceAttach(p)
	f.K.PostSignal(p, types.SIGTRAP)
	if _, err := c.WaitStop(100000); err != nil {
		t.Fatal(err)
	}
	if err := c.PokeText(0x80000000, vcpu.Encode(vcpu.OpNOP, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Cont(0); err != nil {
		t.Fatal(err)
	}
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 5 {
		t.Fatalf("status = %#x, want exit 5 (still spinning means the fetch TLB kept the pre-poke instruction)", status)
	}
}

// The two images of one program, identical but for the instruction at spin:
// the first spins forever, the second falls through to exit 5. The text is
// shorter than a page, so its page straddles the end of the executable file
// and the fetch translation is the address space's memoized padded copy.
const (
	spinText = `
spin:	jmp spin
	movi r0, SYS_exit
	movi r1, 5
	syscall
`
	nopText = `
spin:	nop
	movi r0, SYS_exit
	movi r1, 5
	syscall
`
)

// Overwriting a running program's executable through the file system moves
// the file's revision without touching the address space's generation. The
// padded text page memoized at the old revision must not be served again:
// the process escapes its jmp-to-self only if the next fetch sees the new
// instruction.
func TestTLBInvalidateExecutableOverwrite(t *testing.T) {
	f := boot(t)
	p := f.spawn("tlbover", spinText, user())
	f.K.Run(20) // warm the fetch translation and the padded-page memo
	if !p.Alive() {
		t.Fatal("spinner exited before the overwrite")
	}
	f.install("/bin/tlbover", nopText, 0o755, 0, 0)
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 5 {
		t.Fatalf("status = %#x, want exit 5 (still spinning means a stale padded text page was fetched)", status)
	}
}

// The same check across a checkpoint rewind: restoring the file system puts
// the spinning image back under a fresh revision, so after the restore the
// process spins again (a padded copy of the overwritten image would let it
// exit), and overwriting the file once more releases it.
func TestTLBInvalidateExecutableRestore(t *testing.T) {
	f := bootCfg(t, kernel.Config{NCPU: 1}) // snapshots are NCPU=1 only
	p := f.spawn("tlbrest", spinText, user())
	f.K.Run(20)
	sn, err := f.K.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fsSt := f.FS.SaveState()

	f.install("/bin/tlbrest", nopText, 0o755, 0, 0)
	if ok, code := kernel.WIfExited(f.runToExit(p)); !ok || code != 5 {
		t.Fatal("overwrite before the rewind did not release the spinner")
	}

	if err := f.K.Restore(sn); err != nil {
		t.Fatal(err)
	}
	f.FS.RestoreState(fsSt)
	f.K.Run(20)
	if !p.Alive() {
		t.Fatalf("status = %#x after the rewind, want a live spinner (the overwritten image was fetched)", p.ExitStatus)
	}
	f.install("/bin/tlbrest", nopText, 0o755, 0, 0)
	status := f.runToExit(p)
	if ok, code := kernel.WIfExited(status); !ok || code != 5 {
		t.Fatalf("status = %#x, want exit 5 (still spinning means a stale padded text page was fetched)", status)
	}
}

// Overwriting a running program's executable moves the mem epoch: that is
// the one signal that drops every translation aliasing the old text.
// Running the program, which maps and fetches the file but writes no file,
// leaves the epoch alone.
func TestExecutableOverwriteMovesEpoch(t *testing.T) {
	f := boot(t)
	p := f.spawn("epochover", spinText, user())
	epoch := mem.Epoch()
	f.K.Run(20)
	if !p.Alive() {
		t.Fatal("spinner exited before the overwrite")
	}
	if got := mem.Epoch(); got != epoch {
		t.Fatalf("running the spinner moved the epoch %d times", got-epoch)
	}
	f.install("/bin/epochover", nopText, 0o755, 0, 0)
	if mem.Epoch() == epoch {
		t.Fatal("overwriting a mapped, running executable left the epoch alone")
	}
	if ok, code := kernel.WIfExited(f.runToExit(p)); !ok || code != 5 {
		t.Fatal("the overwritten spinner did not exit 5")
	}
}
