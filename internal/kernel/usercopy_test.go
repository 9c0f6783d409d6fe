package kernel_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/xout"
)

// A system call copies to and from its caller's memory under the caller's
// own access rules, not /proc's: a page that refuses the access is EFAULT,
// and a reference in the stack's growth region grows the stack. Each test
// runs at one CPU and at two.

// eachWidth runs test at NCPU=1 and NCPU=2.
func eachWidth(t *testing.T, test func(t *testing.T, f *fixture)) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			f := bootCfg(t, kernel.Config{NCPU: ncpu})
			if err := f.FS.WriteFile("/tmp/src", []byte("ABCD"), 0o644, 0, 0); err != nil {
				t.Fatal(err)
			}
			test(t, f)
		})
	}
}

// segOf returns p's first mapping of the given kind.
func segOf(t *testing.T, p *kernel.Proc, kind mem.SegKind) *mem.Seg {
	t.Helper()
	for _, s := range p.AS.SegsView() {
		if s.Kind == kind {
			return s
		}
	}
	t.Fatalf("no %v mapping", kind)
	return nil
}

// userBytes reads n bytes of p's memory at addr through the /proc rule.
func userBytes(t *testing.T, p *kernel.Proc, addr uint32, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if _, err := p.AS.ReadAt(b, int64(addr)); err != nil {
		t.Fatal(err)
	}
	return b
}

// userWord reads the word of p's memory at addr.
func userWord(t *testing.T, p *kernel.Proc, addr uint32) uint32 {
	t.Helper()
	return binary.BigEndian.Uint32(userBytes(t, p, addr, 4))
}

// runToPause drives the scheduler until p has stored a nonzero word at the
// start of its data segment, which the programs below do last before they
// pause.
func (f *fixture) runToPause(p *kernel.Proc, data uint32) {
	f.t.Helper()
	if err := f.K.RunUntil(func() bool { return !p.Alive() || userWord(f.t, p, data) != 0 }, 100_000); err != nil {
		f.t.Fatal(err)
	}
	if !p.Alive() {
		f.t.Fatalf("program exited with status %#x", p.ExitStatus)
	}
}

// exitCode runs p to its exit and returns its exit code.
func (f *fixture) exitCode(p *kernel.Proc) int {
	f.t.Helper()
	ok, code := kernel.WIfExited(f.runToExit(p))
	if !ok {
		f.t.Fatal("program did not exit normally")
	}
	return code
}

// TestReadIntoTextIsEFAULT reads a file into a word of the program's own
// read/exec text. The read fails with EFAULT, and the text keeps its bytes
// and its pages: no copy-on-write made one private.
func TestReadIntoTextIsEFAULT(t *testing.T) {
	eachWidth(t, func(t *testing.T, f *fixture) {
		p := f.spawn("rdtext", fmt.Sprintf(`
	movi r0, SYS_open
	la r1, path
	movi r2, %d
	syscall
	mov r1, r0
	movi r0, SYS_read
	la r2, target
	movi r3, 4
	syscall
	la r4, res
	la r5, target
	st r5, [r4+4]
	st r0, [r4]
	movi r0, SYS_pause
	syscall
target:	.word 0x11223344
.data
res:	.word 0, 0
path:	.asciz "/tmp/src"
`, vfs.ORead), user())
		text, data := segOf(t, p, mem.KindText), segOf(t, p, mem.KindData).Base
		priv := text.PrivatePages()
		f.runToPause(p, data)
		if got := userWord(t, p, data); got != uint32(kernel.EFAULT) {
			t.Fatalf("read(2) into text returned %d, want EFAULT (%d)", got, kernel.EFAULT)
		}
		if got := userWord(t, p, userWord(t, p, data+4)); got != 0x11223344 {
			t.Fatalf("the text word is %#x, want 0x11223344", got)
		}
		if got := text.PrivatePages(); got != priv {
			t.Fatalf("the text has %d private pages, want %d", got, priv)
		}
	})
}

// TestWriteFromProtNoneIsEFAULT writes to a file from a page the program
// made PROT_NONE. The write fails with EFAULT.
func TestWriteFromProtNoneIsEFAULT(t *testing.T) {
	eachWidth(t, func(t *testing.T, f *fixture) {
		p := f.spawn("wrnone", fmt.Sprintf(`
	movi r0, SYS_open
	la r1, path
	movi r2, %d
	syscall
	mov r6, r0
	movi r0, SYS_mprotect
	la r1, buf
	li r2, 4096
	movi r3, 0
	syscall
	movi r0, SYS_write
	mov r1, r6
	la r2, buf
	movi r3, 4
	syscall
	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
path:	.asciz "/tmp/dst"
.align 4096
buf:	.ascii "WXYZ"
`, vfs.OWrite|vfs.OCreat), user())
		if got := f.exitCode(p); got != int(kernel.EFAULT) {
			t.Fatalf("write(2) from a PROT_NONE page returned %d, want EFAULT (%d)", got, kernel.EFAULT)
		}
	})
}

// TestReadIntoStackGrowthGrows reads a file into a buffer below the stack
// mapping, in its growth region. The read grows the stack by one extension,
// as a store made by an instruction would, and succeeds.
func TestReadIntoStackGrowthGrows(t *testing.T) {
	const buf = xout.StackTop - xout.StackInit - 0x1000 + 0x10
	eachWidth(t, func(t *testing.T, f *fixture) {
		p := f.spawn("rdgrow", fmt.Sprintf(`
	movi r0, SYS_open
	la r1, path
	movi r2, %d
	syscall
	mov r1, r0
	movi r0, SYS_read
	li r2, %d
	movi r3, 4
	syscall
	la r4, res
	st r0, [r4]
	movi r0, SYS_pause
	syscall
.data
res:	.word 0
path:	.asciz "/tmp/src"
`, vfs.ORead, buf), user())
		data := segOf(t, p, mem.KindData).Base
		grown := p.AS.StatsSnap().GrowStack
		f.runToPause(p, data)
		if got := userWord(t, p, data); got != 4 {
			t.Fatalf("read(2) into the stack growth region returned %d, want 4", got)
		}
		if got := p.AS.StatsSnap().GrowStack - grown; got != 1 {
			t.Fatalf("the stack grew %d times, want 1", got)
		}
		if got := userBytes(t, p, buf, 4); string(got) != "ABCD" {
			t.Fatalf("the buffer holds %q, want \"ABCD\"", got)
		}
	})
}

// TestOpenPathInProtNoneIsEFAULT opens a path whose bytes lie in a page
// the program made PROT_NONE. The open fails with EFAULT.
func TestOpenPathInProtNoneIsEFAULT(t *testing.T) {
	eachWidth(t, func(t *testing.T, f *fixture) {
		p := f.spawn("opnone", fmt.Sprintf(`
	movi r0, SYS_mprotect
	la r1, path
	li r2, 4096
	movi r3, 0
	syscall
	movi r0, SYS_open
	la r1, path
	movi r2, %d
	syscall
	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
path:	.asciz "/tmp/src"
`, vfs.ORead), user())
		if got := f.exitCode(p); got != int(kernel.EFAULT) {
			t.Fatalf("open(2) of a path in a PROT_NONE page returned %d, want EFAULT (%d)", got, kernel.EFAULT)
		}
	})
}

// TestSyscallCopyLeavesWatchpointsAlone pins how a system call's copy to
// and from a watched area is reported: it is not. A read(2) into a watched
// word and a write(2) from it neither stop the traced program with
// FLTWATCH nor count a same-page recovery (DESIGN.md, "System calls and
// watched areas").
func TestSyscallCopyLeavesWatchpointsAlone(t *testing.T) {
	eachWidth(t, func(t *testing.T, f *fixture) {
		p := f.spawn("wcopy", fmt.Sprintf(`
	movi r0, SYS_open
	la r1, src
	movi r2, %d
	syscall
	mov r6, r0
	movi r0, SYS_open
	la r1, dst
	movi r2, %d
	syscall
	mov r7, r0
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 4
	syscall
	la r4, res
	st r0, [r4+4]
	movi r0, SYS_write
	mov r1, r7
	la r2, buf
	movi r3, 4
	syscall
	la r4, res
	st r0, [r4]
	movi r0, SYS_pause
	syscall
.data
res:	.word 0, 0
src:	.asciz "/tmp/src"
dst:	.asciz "/tmp/dst"
.align 4096
buf:	.space 16
`, vfs.ORead, vfs.OWrite|vfs.OCreat), user())
		data := segOf(t, p, mem.KindData).Base
		buf := data + 4096
		f.K.GlobalLock()
		p.Lock()
		p.Trace.Faults.Add(types.FLTWATCH)
		p.Unlock()
		f.K.GlobalUnlock()
		p.AS.SetWatch(buf, 4, mem.ProtRead|mem.ProtWrite)
		f.runToPause(p, data)
		if l := p.Rep(); l.Stopped() {
			why, what := l.Why()
			t.Fatalf("the program stopped: why=%v what=%d", why, what)
		}
		if rd, wr := userWord(t, p, data+4), userWord(t, p, data); rd != 4 || wr != 4 {
			t.Fatalf("read(2) returned %d and write(2) %d, want 4 and 4", rd, wr)
		}
		if got := userBytes(t, p, buf, 4); string(got) != "ABCD" {
			t.Fatalf("the watched word holds %q, want \"ABCD\"", got)
		}
		if got := p.AS.StatsSnap().WatchRecover; got != 0 {
			t.Fatalf("WatchRecover = %d, want 0", got)
		}
		cl := &vfs.Client{NS: f.K.NS, Cred: types.RootCred()}
		out, err := cl.ReadFile("/tmp/dst")
		if err != nil || !bytes.Equal(out, []byte("ABCD")) {
			t.Fatalf("/tmp/dst = %q, %v; want \"ABCD\"", out, err)
		}
	})
}
