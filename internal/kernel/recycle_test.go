package kernel

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// recycleSrc forks children in a loop, alternating two roles, and exits 1
// as soon as a child reports failure. A scribbler grows the break by four
// pages, fills them with 0xAA, shrinks the break and exits, handing its
// frames to the free list (brk shrink, then exit). A checker grows the break
// by four pages, materializes each with a zero store and exits 1 if any word
// of them is not zero: a recycled frame that kept a scribbler's bytes. Both
// touch one word in every 64 bytes, which keeps a child to about a
// thousand instructions and still puts 0xAA on every word a checker reads.
const recycleSrc = `
	la r6, heap
	addi r6, 4095
	li r3, 0xFFFFF000
	and r6, r3		; r6 = the first page of the heap
	movi r7, 0		; children that passed
loop:	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	je child
	movi r0, SYS_wait
	movi r1, 0
	syscall
	cmpi r1, 0
	jne bad
	addi r7, 1
	jmp loop
bad:	movi r0, SYS_exit
	movi r1, 1
	syscall
child:	mov r2, r6
	addi r2, 16384		; r2 = the grown break
	movi r0, SYS_brk
	mov r1, r2
	syscall
	mov r4, r6
	movi r3, 1
	and r3, r7
	cmpi r3, 0
	jne scrib
	movi r5, 0
touch:	st r5, [r4]
	addi r4, 4096
	cmp r4, r2
	jlt touch
	mov r4, r6
scan:	ld r5, [r4]
	cmpi r5, 0
	jne dirty
	addi r4, 64
	cmp r4, r2
	jlt scan
	movi r1, 0
	jmp out
dirty:	movi r1, 1
out:	movi r0, SYS_exit
	syscall
scrib:	li r5, 0xAAAAAAAA
fill:	st r5, [r4]
	addi r4, 64
	cmp r4, r2
	jlt fill
	movi r0, SYS_brk
	mov r1, r6
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.bss
heap:	.space 4
`

// TestRecycledFramesStayPrivate runs scribblers and checkers side by side
// at both widths: frames recycled from dead or shrunk heaps must reach the
// next zero-fill cleared, and the frame invariants hold at the end.
func TestRecycledFramesStayPrivate(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			fs := memfs.New(nil)
			k := New(vfs.NewNS(fs.Root()), Config{NCPU: ncpu})
			defer k.Shutdown()
			img, err := asm.Assemble(recycleSrc, &asm.Options{Predef: Predefs()})
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/recycle", img.Marshal(), 0o755, 0, 0); err != nil {
				t.Fatal(err)
			}
			var drivers []*Proc
			for i := 0; i < 4; i++ {
				p, err := k.Spawn("/recycle", nil, types.UserCred(100, 10), nil)
				if err != nil {
					t.Fatal(err)
				}
				drivers = append(drivers, p)
			}
			k.Run(2000)
			passed := 0
			for _, p := range drivers {
				if !p.Alive() {
					t.Fatalf("pid %d saw a child fail: a fresh heap page was not zero", p.Pid)
				}
				passed += int(p.LWPs[0].CPU.Regs.R[7])
			}
			if passed < 100 {
				t.Fatalf("only %d children ran to completion", passed)
			}
			if err := k.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
