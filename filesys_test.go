package repro_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/blockfs"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vfs"
)

// progFileChurn opens path read-write (creating it) and loops forever:
// write 512 bytes, lseek back to 0, read the 512 bytes back, and count the
// iteration in memory. Any failed call exits with the call's code.
func progFileChurn(path string) string {
	return fmt.Sprintf(`
	movi r0, SYS_open
	la r1, path
	movi r2, %d
	syscall
	cmpi r0, 0
	jlt bad
	mov r6, r0
	la r7, count
loop:	movi r0, SYS_write
	mov r1, r6
	la r2, buf
	movi r3, 512
	syscall
	cmpi r0, 512
	jne bad
	movi r0, SYS_lseek
	mov r1, r6
	movi r2, 0
	movi r3, 0
	syscall
	cmpi r0, 0
	jne bad
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 512
	syscall
	cmpi r0, 512
	jne bad
	ld r5, [r7]
	addi r5, 1
	st r5, [r7]
	jmp loop
bad:	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
.align 4
count:	.word 0
path:	.asciz "%s"
.align 4
buf:	.space 512
`, vfs.ORead|vfs.OWrite|vfs.OCreat, path)
}

// mountDisk mounts a fresh blockfs at /disk.
func mountDisk(t *testing.T, s *repro.System) {
	t.Helper()
	dev := blockfs.NewMemDev(1024)
	if err := blockfs.Mkfs(dev, 0); err != nil {
		t.Fatal(err)
	}
	fs, err := blockfs.Mount(dev, blockfs.MountOptions{Now: s.K.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.NS.Mount("/disk", fs.Root()); err != nil {
		t.Fatal(err)
	}
	s.FS.MkdirAll("/disk", 0o755)
}

// dataBase returns the address of p's data segment.
func dataBase(t *testing.T, p *kernel.Proc) uint32 {
	t.Helper()
	for _, seg := range p.AS.SegsView() {
		if seg.Kind == mem.KindData {
			return seg.Base
		}
	}
	t.Fatal("no data segment")
	return 0
}

// dataWord reads the first word of p's data segment.
func dataWord(t *testing.T, p *kernel.Proc) uint32 {
	t.Helper()
	var b [4]byte
	if _, err := p.AS.ReadAt(b[:], int64(dataBase(t, p))); err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint32(b[:])
}

// TestFileSyscallAllocBudget pins the steady-state allocation cost of the
// file system calls: a simulated program looping 512-byte write, lseek and
// read allocates nothing, on memfs and on blockfs. read(2) and write(2)
// stage their data through the kernel's one reusable staging slice; they
// used to allocate a fresh slice per call.
func TestFileSyscallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	if lockDebugEnabled {
		t.Skip("lock-order assertions allocate on every acquire")
	}
	for _, path := range []string{"/churn", "/disk/churn"} {
		t.Run(path, func(t *testing.T) {
			s := repro.NewSystem(repro.Options{NCPU: 1})
			defer s.Close()
			mountDisk(t, s)
			p, err := s.SpawnProg("churn", progFileChurn(path), types.RootCred())
			if err != nil {
				t.Fatal(err)
			}
			s.Run(200) // the file open, the blocks allocated, the journal warm
			if !p.Alive() {
				t.Fatalf("churner exited with status %#x", p.ExitStatus)
			}

			var before, after runtime.MemStats
			n0 := dataWord(t, p)
			runtime.ReadMemStats(&before)
			s.Run(500)
			runtime.ReadMemStats(&after)
			if !p.Alive() {
				t.Fatalf("churner exited with status %#x", p.ExitStatus)
			}
			iters := float64(dataWord(t, p) - n0)
			if iters < 500 {
				t.Fatalf("only %.0f iterations in 500 passes", iters)
			}
			allocs := float64(after.Mallocs-before.Mallocs) / iters
			t.Logf("%.0f iterations: %.3f allocs per write+lseek+read", iters, allocs)
			// Zero per call, with headroom for incidental runtime
			// allocations: one per 50 iterations.
			if allocs > 0.02 {
				t.Errorf("%.3f allocs per iteration, budget 0 (0.02 with headroom)", allocs)
			}
		})
	}
}

// progStaleRead leaves 1024 bytes of poison in the kernel's staging slice
// (a 1024-byte write of 0xA5 bytes) before each of three reads of 1024
// bytes that return fewer: a 5-byte file, a pipe holding 3 bytes, and its
// own /proc as-file 8 bytes below the end of a page mapped at 0x40000000,
// with nothing mapped above it. It then stores 1 in done, or the number of
// the step that failed, and spins.
func progStaleRead() string {
	return `
	movi r0, SYS_creat
	la r1, junk
	movi r2, 420
	syscall
	mov r6, r0		; r6 = the poison sink
	movi r7, 11
	call poison
	movi r0, SYS_open	; 1: the short file
	la r1, short
	movi r2, 1
	syscall
	mov r1, r0
	movi r0, SYS_read
	la r2, buf1
	movi r3, 1024
	syscall
	movi r7, 12
	cmpi r0, 5
	jne fail
	movi r0, SYS_pipe	; 2: the pipe
	syscall
	mov r4, r0		; read end
	mov r5, r1		; write end
	movi r0, SYS_write
	mov r1, r5
	la r2, abc
	movi r3, 3
	syscall
	movi r7, 13
	call poison
	movi r0, SYS_read
	mov r1, r4
	la r2, buf2
	movi r3, 1024
	syscall
	movi r7, 14
	cmpi r0, 3
	jne fail
	movi r0, SYS_mmap	; 3: the as-file up to an unmapped page
	li r1, 0x40000000
	movi r2, 4096
	movi r3, 3
	movi r4, 16		; MAP_FIXED
	syscall
	li r1, 0x40000ffc
	li r2, 0x12345678
	st r2, [r1]
	movi r0, SYS_getpid
	syscall
	mov r5, r0
	la r4, name		; render the pid as the 5-digit file name, backwards
	addi r4, 4
	movi r3, 5
digs:	mov r1, r5
	movi r2, 10
	mod r1, r2
	addi r1, 48
	stb r1, [r4]
	movi r2, 10
	div r5, r2
	addi r4, -1
	addi r3, -1
	cmpi r3, 0
	jne digs
	movi r0, SYS_open
	la r1, proc
	movi r2, 1
	syscall
	mov r5, r0
	movi r0, SYS_lseek
	mov r1, r5
	li r2, 0x40000ff8
	movi r3, 0
	syscall
	movi r7, 15
	call poison
	movi r0, SYS_read
	mov r1, r5
	la r2, buf3
	movi r3, 1024
	syscall
	movi r7, 16
	cmpi r0, 8
	jne fail
	movi r7, 1
fail:	la r1, done
	st r7, [r1]
spin:	jmp spin
poison:	movi r0, SYS_write
	mov r1, r6
	la r2, psn
	movi r3, 1024
	syscall
	cmpi r0, 1024
	jne fail
	ret
.data
done:	.word 0
buf1:	.space 1024
buf2:	.space 1024
buf3:	.space 1024
psn:	.word ` + strings.TrimSuffix(strings.Repeat("0xa5a5a5a5, ", 256), ", ") + `
junk:	.asciz "/junk"
short:	.asciz "/short"
abc:	.ascii "abc"
proc:	.ascii "/proc/"
name:	.asciz "00000"
`
}

// TestStagedReadShowsNoStaleBytes reads, through the staging slice that an
// earlier 1024-byte write filled with poison, a short file, a pipe and the
// /proc as-file across an unmapped boundary. Each read returns exactly the
// bytes it reports, and the rest of the program's buffer stays as it was
// (zero): a reused staging slice holds an earlier call's bytes where a fresh
// one held zeros, so read(2) must copy out only what the handler filled.
func TestStagedReadShowsNoStaleBytes(t *testing.T) {
	s := repro.NewSystem(repro.Options{})
	defer s.Close()
	if err := s.FS.WriteFile("/short", []byte("hello"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.FS.WriteFile("/junk", nil, 0o666, 0, 0)
	p, err := s.SpawnProg("stale", progStaleRead(), types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.K.RunUntil(func() bool { return !p.Alive() || dataWord(t, p) != 0 }, 100_000); err != nil {
		t.Fatal(err)
	}
	if !p.Alive() {
		t.Fatalf("program exited with status %#x", p.ExitStatus)
	}
	if step := dataWord(t, p); step != 1 {
		t.Fatalf("step %d failed", step)
	}
	base := dataBase(t, p)
	for i, want := range [][]byte{
		[]byte("hello"),
		[]byte("abc"),
		{0, 0, 0, 0, 0x12, 0x34, 0x56, 0x78},
	} {
		buf := make([]byte, 1024)
		if _, err := p.AS.ReadAt(buf, int64(base)+4+int64(i)*1024); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:len(want)], want) {
			t.Errorf("read %d: got % x, want % x", i+1, buf[:len(want)], want)
		}
		if j := bytes.IndexFunc(buf[len(want):], func(r rune) bool { return r != 0 }); j >= 0 {
			t.Errorf("read %d: byte %d past the %d read is %#x, want 0", i+1, len(want)+j, len(want), buf[len(want)+j])
		}
	}
}

// TestLseekSetsHighAddress positions a program's own /proc as-file at its
// first instruction, above 0x80000000, with one SEEK_SET: lseek takes a
// SEEK_SET offset as an unsigned word. The program compares the word it
// reads through /proc with the one it loads from its text, and lseek's
// result with the address.
func TestLseekSetsHighAddress(t *testing.T) {
	s := repro.NewSystem(repro.Options{})
	defer s.Close()
	p, err := s.SpawnProg("seeker", `
start:	movi r0, SYS_getpid
	syscall
	mov r5, r0
	la r4, name		; render the pid as the 5-digit file name, backwards
	addi r4, 4
	movi r3, 5
digs:	mov r1, r5
	movi r2, 10
	mod r1, r2
	addi r1, 48
	stb r1, [r4]
	movi r2, 10
	div r5, r2
	addi r4, -1
	addi r3, -1
	cmpi r3, 0
	jne digs
	movi r0, SYS_open
	la r1, proc
	movi r2, 1
	syscall
	mov r6, r0
	movi r0, SYS_lseek
	mov r1, r6
	la r2, start
	movi r3, 0
	syscall
	movi r1, 11
	la r2, start
	cmp r0, r2
	jne out
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 4
	syscall
	movi r1, 12
	cmpi r0, 4
	jne out
	la r2, buf
	ld r3, [r2]
	la r2, start
	ld r4, [r2]
	movi r1, 13
	cmp r3, r4
	jne out
	movi r1, 0
out:	movi r0, SYS_exit
	syscall
.data
.align 4
buf:	.word 0
proc:	.ascii "/proc/"
name:	.asciz "00000"
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != 0 {
		t.Fatalf("exit code %d: 11 lseek's result, 12 the read, 13 the word read", code)
	}
}

// TestLseekRefusesNegativeOffset: an lseek whose result would be negative
// fails with EINVAL and leaves the offset at 0, so the read that follows
// finds end of file instead of reading before byte 0.
func TestLseekRefusesNegativeOffset(t *testing.T) {
	s := repro.NewSystem(repro.Options{})
	defer s.Close()
	p, err := s.SpawnProg("negseek", `
	movi r0, SYS_open
	la r1, path
	movi r2, 11		; ORead|OWrite|OCreat
	syscall
	mov r6, r0
	movi r0, SYS_lseek
	mov r1, r6
	li r2, 0xFFFFFFF8	; -8
	movi r3, 1		; SEEK_CUR
	syscall
	mov r7, r0
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 4
	syscall
	movi r1, 12
	cmpi r0, 0
	jne out
	movi r1, 11
	cmpi r7, 22		; EINVAL
	jne out
	movi r1, 0
out:	movi r0, SYS_exit
	syscall
.data
.align 4
buf:	.word 0
path:	.asciz "/tmp/negseek"
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != 0 {
		t.Fatalf("exit code %d: 11 lseek did not fail with EINVAL, 12 the read did not return 0", code)
	}
}
