package kernel_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// TestCoreFileGolden pins the core file format: a program that stores a
// tag and divides by zero leaves the same core bytes every time.
func TestCoreFileGolden(t *testing.T) {
	f := bootCfg(t, kernel.Config{NCPU: 1})
	p := f.spawn("dumper", `
	movi r0, SYS_chdir
	la r1, tmp
	syscall
	la r3, tag
	movi r4, 0x5A
	stb r4, [r3]
	movi r5, 1
	movi r6, 0
	div r5, r6
.data
tmp:	.asciz "/tmp"
tag:	.byte 0
`, user())
	if ok, sig, core := kernel.WIfSignaled(f.runToExit(p)); !ok || sig != types.SIGFPE || !core {
		t.Fatal("no core dump")
	}
	cl := &vfs.Client{NS: f.K.NS, Cred: types.RootCred()}
	data, err := cl.ReadFile("/tmp/core." + itoa(p.Pid))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "a519aa06c9bf4cbef40a5e834a5ec21cd3486a14d79309316520ce543e327e1a"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("core file (%d bytes) sha256\n got %s\nwant %s", len(data), got, want)
	}
}

// FuzzParseCore: no input panics the parser, and the segments of an
// accepted core fit inside the input, so a hostile count or length cannot
// make it allocate more than it was given.
func FuzzParseCore(f *testing.F) {
	var c wire.Cursor
	c.B = append(c.B, kernel.CoreMagic[:]...)
	c.PutU32(7)                    // pid
	c.PutU32(uint32(types.SIGFPE)) // signal
	for i := 0; i < 11; i++ {
		c.PutU32(uint32(0x80000000 + i))
	}
	c.PutU32(2)
	c.PutU32(0x80000000)
	c.PutBytes([]byte{1, 2, 3, 4})
	c.PutU32(0x7FFF7000)
	c.PutBytes([]byte("stack"))
	f.Add([]byte{})
	f.Add(c.B)
	f.Add(c.B[:len(c.B)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := kernel.ParseCore(b)
		if err != nil {
			return
		}
		n := 0
		for _, s := range img.Segs {
			n += len(s.Data)
		}
		if n > len(b) {
			t.Fatalf("%d bytes of segments from a %d-byte core", n, len(b))
		}
	})
}
