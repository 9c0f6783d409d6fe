package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/types"
)

// A handler's action mask holds further signals while it runs; sigreturn
// restores the mask, after which the held signal is delivered.
func TestHandlerMaskDefersNestedSignal(t *testing.T) {
	f := boot(t)
	p := f.spawn("nested", `
.entry main
; handler for SIGUSR1: record entry, then spin until poked
h1:
	la r3, inh1
	movi r4, 1
	st r4, [r3]
wait1:	la r3, poke
	ld r4, [r3]
	cmpi r4, 1
	jne wait1
	movi r0, SYS_sigreturn
	syscall
; handler for SIGUSR2: set its flag
h2:
	la r3, gotu2
	movi r4, 1
	st r4, [r3]
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, h1
	syscall
	movi r0, SYS_signal
	movi r1, SIGUSR2
	la r2, h2
	syscall
loop:	la r3, gotu2
	ld r4, [r3]
	cmpi r4, 1
	jne loop
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
inh1:	.word 0
poke:	.word 0
gotu2:	.word 0
`, user())
	// Make SIGUSR1's handler hold SIGUSR2.
	f.K.Run(30)
	act := p.SigActionOf(types.SIGUSR1)
	act.Mask.Add(types.SIGUSR2)
	p.SetSigAction(types.SIGUSR1, act)

	// Deliver USR1; once the handler is running, deliver USR2 — it must
	// stay pending until the handler returns.
	f.K.PostSignal(p, types.SIGUSR1)
	syms, _ := p.ImageSyms()
	addr := func(name string) uint32 {
		for _, s := range syms {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("no symbol %s", name)
		return 0
	}
	inH1 := addr("inh1")
	err := f.K.RunUntil(func() bool {
		var b [4]byte
		p.AS.ReadAt(b[:], int64(inH1))
		return b[3] == 1
	}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	f.K.PostSignal(p, types.SIGUSR2)
	f.K.Run(30)
	var b [4]byte
	p.AS.ReadAt(b[:], int64(addr("gotu2")))
	if b[3] != 0 {
		t.Fatal("USR2 delivered while held by the handler mask")
	}
	if !p.SigPend.Has(types.SIGUSR2) {
		t.Fatal("USR2 should be pending")
	}
	// Poke the handler loose: sigreturn restores the mask; USR2 delivers.
	p.AS.WriteAt([]byte{0, 0, 0, 1}, int64(addr("poke")))
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 0 {
		t.Fatalf("status %#x", status)
	}
}

// The handler's own signal is held while the handler runs, so a re-send
// pends instead of recursing.
func TestHandlerSignalSelfHeld(t *testing.T) {
	f := boot(t)
	p := f.spawn("selfheld", `
.entry main
h:	la r3, depth
	ld r4, [r3]
	addi r4, 1
	st r4, [r3]		; depth++
	la r3, maxd
	ld r5, [r3]
	cmp r5, r4
	jge nomax
	la r3, maxd
	st r4, [r3]		; maxd = max(maxd, depth)
nomax:
wait:	la r3, poke
	ld r6, [r3]
	cmpi r6, 1
	jne wait
	la r3, depth
	ld r4, [r3]
	addi r4, -1
	st r4, [r3]		; depth--
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, h
	syscall
spin:	la r3, done
	ld r4, [r3]
	cmpi r4, 2
	jne spin
	la r3, maxd
	ld r1, [r3]		; exit code = max nesting depth
	movi r0, SYS_exit
	syscall
.data
depth:	.word 0
maxd:	.word 0
poke:	.word 0
done:	.word 0
`, user())
	f.K.Run(30)
	syms, _ := p.ImageSyms()
	addr := func(name string) uint32 {
		for _, s := range syms {
			if s.Name == name {
				return s.Value
			}
		}
		return 0
	}
	f.K.PostSignal(p, types.SIGUSR1)
	// Wait until the handler is running.
	err := f.K.RunUntil(func() bool {
		var b [4]byte
		p.AS.ReadAt(b[:], int64(addr("depth")))
		return b[3] == 1
	}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	// Send it again while the handler runs: it must pend (self-held).
	f.K.PostSignal(p, types.SIGUSR1)
	f.K.Run(30)
	if !p.SigPend.Has(types.SIGUSR1) {
		t.Fatal("re-sent signal should pend while the handler runs")
	}
	// Release the handler; the pending signal runs the handler again
	// (sequentially, depth never exceeding 1); then tell main to exit.
	p.AS.WriteAt([]byte{0, 0, 0, 1}, int64(addr("poke")))
	err = f.K.RunUntil(func() bool {
		var b [4]byte
		p.AS.ReadAt(b[:], int64(addr("depth")))
		// Both handler runs finished: depth back to 0 and no pending.
		return b[3] == 0 && !p.SigPend.Has(types.SIGUSR1)
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	p.AS.WriteAt([]byte{0, 0, 0, 2}, int64(addr("done")))
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 1 {
		t.Fatalf("max depth = %d, want 1 (no recursion)", code)
	}
}

// Registers survive signal delivery: the handler clobbers everything, and
// sigreturn restores the interrupted computation exactly.
func TestSignalFramePreservesRegisters(t *testing.T) {
	f := boot(t)
	p := f.spawn("frames", `
.entry main
h:	movi r2, 0		; clobber the registers main depends on
	movi r3, 0
	movi r4, 0
	movi r5, 0
	movi r6, 0
	movi r7, 0
	la r3, seen
	movi r4, 1
	st r4, [r3]
	movi r0, SYS_sigreturn
	syscall
main:
	movi r0, SYS_signal
	movi r1, SIGUSR1
	la r2, h
	syscall
	movi r2, 11		; the state the handler must not destroy
	movi r3, 22
	movi r4, 33
wait:	la r5, seen
	ld r6, [r5]
	cmpi r6, 1
	jne wait
	; r2..r4 must be intact
	movi r1, 0
	cmpi r2, 11
	jne bad
	cmpi r3, 22
	jne bad
	cmpi r4, 33
	jne bad
	movi r1, 1
bad:	movi r0, SYS_exit
	syscall
.data
seen:	.word 0
`, user())
	f.K.Run(30)
	f.K.PostSignal(p, types.SIGUSR1)
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 1 {
		t.Fatal("registers were not preserved across signal delivery")
	}
}
