package mem

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// faultOf returns err's access fault, or -1 if err is not an *AccessError.
func faultOf(err error) int {
	if ae, ok := err.(*AccessError); ok {
		return ae.Fault
	}
	return -1
}

// The one walk under its three rules, side by side: /proc writes read/exec
// text through copy-on-write and reads PROT_NONE memory, where a system
// call and an instruction get FLTACCESS; a system call and an instruction
// grow the stack, where /proc finds nothing mapped; only an instruction
// fires a watchpoint or counts a same-page recovery.
func TestAccessRules(t *testing.T) {
	as := newTestAS()
	text := mustMap(t, as, MapArgs{Base: 0x10000, Len: 0x1000, Prot: ProtRX, Fixed: true,
		Obj: &ByteObject{Name: "text", Data: []byte{1, 2, 3, 4}}})
	mustMap(t, as, MapArgs{Base: 0x20000, Len: 0x1000, Prot: 0, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x30000, Len: 0x2000, Prot: ProtRW, Fixed: true})
	stk := mustMap(t, as, MapArgs{Base: 0x7FFF0000, Len: 0x1000, Prot: ProtRW, Kind: KindStack, Fixed: true})
	as.SetStack(stk, 0x7FF00000)
	b := make([]byte, 4)

	if err := as.CopyOut(0x10000, b); faultOf(err) != types.FLTACCESS {
		t.Errorf("CopyOut to text: %v, want FLTACCESS", err)
	}
	if err := as.AccessWrite(0x10000, b); faultOf(err) != types.FLTACCESS {
		t.Errorf("AccessWrite to text: %v, want FLTACCESS", err)
	}
	if text.PrivatePages() != 0 {
		t.Fatal("a refused store privatized the text page")
	}
	if n, err := as.WriteAt([]byte{9}, 0x10000); n != 1 || err != nil || text.PrivatePages() != 1 {
		t.Errorf("WriteAt to text = %d, %v with %d private pages; want 1, nil, 1", n, err, text.PrivatePages())
	}

	if err := as.CopyIn(0x20000, b); faultOf(err) != types.FLTACCESS {
		t.Errorf("CopyIn from PROT_NONE: %v, want FLTACCESS", err)
	}
	if n, err := as.ReadAt(b, 0x20000); n != 4 || err != nil {
		t.Errorf("ReadAt from PROT_NONE = %d, %v; want 4, nil", n, err)
	}

	if _, err := as.ReadAt(b, 0x7FFEF000); err != ErrNotMapped {
		t.Errorf("ReadAt in the growth region: %v, want ErrNotMapped", err)
	}
	if err := as.CopyOut(0x7FFEF000, []byte("grow")); err != nil || as.Stats.GrowStack != 1 {
		t.Errorf("CopyOut in the growth region: %v with GrowStack %d; want nil, 1", err, as.Stats.GrowStack)
	}

	as.SetWatch(0x30010, 1, ProtWrite)
	if err := as.CopyOut(0x30010, b); err != nil || as.Stats.WatchRecover != 0 {
		t.Errorf("CopyOut over a watch: %v with WatchRecover %d; want nil, 0", err, as.Stats.WatchRecover)
	}
	if err := as.CopyIn(0x30000, b); err != nil || as.Stats.WatchRecover != 0 {
		t.Errorf("CopyIn beside a watch: %v with WatchRecover %d; want nil, 0", err, as.Stats.WatchRecover)
	}
	if err := as.AccessWrite(0x30010, b[:1]); faultOf(err) != types.FLTWATCH {
		t.Errorf("AccessWrite to the watched byte: %v, want FLTWATCH", err)
	}
	if err := as.AccessRead(0x30000, b); err != nil || as.Stats.WatchRecover != 1 {
		t.Errorf("AccessRead beside a watch: %v with WatchRecover %d; want nil, 1", err, as.Stats.WatchRecover)
	}
}

// A checked copy that runs into a bad page stops there: the bytes before it
// were copied and the error names the first bad byte. A /proc transfer is
// cut short at the same place without an error.
func TestCopyStopsAtBadPage(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 0x1000, Prot: ProtRW, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x11000, Len: 0x1000, Prot: ProtRead, Fixed: true})

	err := as.CopyOut(0x10ffe, []byte("abcd"))
	if ae, ok := err.(*AccessError); !ok || ae.Fault != types.FLTACCESS || ae.Addr != 0x11000 {
		t.Fatalf("CopyOut across into a read-only page: %v, want FLTACCESS at 0x11000", err)
	}
	got := make([]byte, 4)
	as.ReadAt(got, 0x10ffe)
	if !bytes.Equal(got, []byte{'a', 'b', 0, 0}) {
		t.Fatalf("after the refused copy the bytes are %q, want \"ab\\0\\0\"", got)
	}

	err = as.CopyIn(0x11ffe, got)
	if ae, ok := err.(*AccessError); !ok || ae.Fault != types.FLTBOUNDS || ae.Addr != 0x12000 {
		t.Fatalf("CopyIn across into an unmapped page: %v, want FLTBOUNDS at 0x12000", err)
	}
	if n, err := as.ReadAt(got, 0x11ffe); n != 2 || err != nil {
		t.Fatalf("ReadAt across into an unmapped page = %d, %v; want 2, nil", n, err)
	}
}
