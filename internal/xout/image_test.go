package xout_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/kernel"
	"repro/internal/xout"
)

// TestAssembledImageGolden pins the xout format of an assembled program
// with text, data, bss, a shared library and symbols.
func TestAssembledImageGolden(t *testing.T) {
	img, err := asm.Assemble(`
.lib "libc"
start:
	la r1, msg
	movi r0, SYS_exit
	movi r1, 3
	syscall
.data
msg:	.asciz "hello, image"
.bss
buf:	.space 64
`, &asm.Options{Predef: kernel.Predefs()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img.Marshal())
	const want = "2c7c9a421a6578fad34353d06d0caaeaa7b2ae41abeb0439fa845fa0f9ee51b0"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("xout image sha256\n got %s\nwant %s", got, want)
	}
}

// FuzzXoutUnmarshal: exec and the debugger parse any file a process can
// write, so no input may panic the parser, and an accepted image must
// re-marshal to bytes that decode to an equal File.
func FuzzXoutUnmarshal(f *testing.F) {
	img := asm.MustAssemble(`
.lib "libc"
start:	movi r0, SYS_exit
	syscall
.data
msg:	.asciz "hi"
`, &asm.Options{Predef: kernel.Predefs()})
	f.Add([]byte{})
	f.Add(img.Marshal())
	f.Add((&xout.File{Entry: xout.TextBase}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := xout.Unmarshal(b)
		if err != nil {
			return
		}
		again, err := xout.Unmarshal(img.Marshal())
		if err != nil {
			t.Fatalf("re-decode of an accepted image: %v", err)
		}
		if !reflect.DeepEqual(img, again) {
			t.Fatalf("image round trip:\n got %+v\nwant %+v", again, img)
		}
	})
}
