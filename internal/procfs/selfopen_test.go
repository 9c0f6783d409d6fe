package procfs_test

import (
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/types"
)

// The flat-/proc twin of procfs2's TestProgramReadsItsOwnPSInfo, at NCPU=2:
// a program opens its own /proc file for reading and writing, reads a word
// of its own text through it, and exits with the descriptor still open, so
// exit closes a /proc descriptor. The open, the lseek, the read and the
// close all reach /proc vnode operations from a system call that already
// holds the global lock.
func TestProgramReadsItselfThroughFlatProcSMP(t *testing.T) {
	s := repro.NewSystem(repro.Options{NCPU: 2})
	defer s.Close()
	p, err := s.SpawnProg("mirror", `
	movi r0, SYS_getpid
	syscall
	mov r5, r0		; pid
	; render the pid as the 5-digit file name, backwards
	la r6, name
	addi r6, 4
	movi r7, 5
digs:	mov r1, r5
	movi r2, 10
	mod r1, r2
	addi r1, 48		; '0' + digit
	stb r1, [r6]
	movi r2, 10
	div r5, r2
	addi r6, -1
	addi r7, -1
	cmpi r7, 0
	jne digs
	; open /proc/<name> read/write, a counted writer like a debugger
	movi r0, SYS_open
	la r1, path
	movi r2, 3
	syscall
	mov r6, r0
	; seek to the address of magic, above 2 GB, and read it back
	movi r0, SYS_lseek
	mov r1, r6
	la r2, magic
	movi r3, 0
	syscall
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 4
	syscall
	la r3, buf
	ld r1, [r3]
	movi r0, SYS_exit	; the /proc descriptor is still open
	syscall
magic:	.word 90
.data
path:	.ascii "/proc/"
name:	.asciz "00000"
buf:	.space 4
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != 90 {
		t.Fatalf("code = %d, want the word read through /proc (90)", code)
	}
	if p.Trace.Writers != 0 {
		t.Fatalf("writers = %d after exit, want 0: exit must close the descriptor", p.Trace.Writers)
	}
}
