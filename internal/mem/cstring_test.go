package mem

import (
	"testing"

	"repro/internal/types"
)

// CString reads a string wherever the process may read: in a materialized
// private page, across a page boundary, in an object that exposes its bytes
// (ending where the object does), in an object that does not, in untouched
// anonymous memory (empty), and in the stack's growth region, which it
// grows. It fails at an unmapped byte (FLTBOUNDS), at a byte the process
// may not read (FLTACCESS), and past max.
func TestCString(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 0x2000, Prot: ProtRW, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x40000, Len: 0x1000, Prot: 0, Fixed: true})
	stk := mustMap(t, as, MapArgs{Base: 0x7FFF0000, Len: 0x1000, Prot: ProtRW, Kind: KindStack, Fixed: true})
	as.SetStack(stk, 0x7FF00000)
	mustMap(t, as, MapArgs{Base: 0x20000, Len: 0x1000, Prot: ProtRead, Fixed: true,
		Obj: &ByteObject{Name: "obj", Data: []byte("xyz")}})
	mustMap(t, as, MapArgs{Base: 0x30000, Len: 0x1000, Prot: ProtRW, Fixed: true,
		Shared: true, Obj: NewAnon("", 4096)})
	for _, w := range []struct {
		at uint32
		s  string
	}{
		{0x10100, "hello\x00"},
		{0x10ffd, "abcdef\x00"}, // spans the page boundary at 0x11000
		{0x11ffc, "tail"},       // runs into the unmapped page at 0x12000
		{0x30010, "shared\x00"},
		{0x40010, "hidden\x00"},
	} {
		if _, err := as.WriteAt([]byte(w.s), int64(w.at)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		at    uint32
		max   int
		want  string
		err   error
		fault int // when nonzero, the *AccessError fault wanted instead of err
	}{
		{0x10100, 64, "hello", nil, 0},
		{0x10ffd, 64, "abcdef", nil, 0},
		{0x10800, 64, "", nil, 0},
		{0x20000, 64, "xyz", nil, 0},
		{0x20001, 64, "yz", nil, 0},
		{0x30010, 64, "shared", nil, 0},
		{0x7FFEF000, 64, "", nil, 0},
		{0x11ffc, 64, "", nil, types.FLTBOUNDS},
		{0x12000, 64, "", nil, types.FLTBOUNDS},
		{0x40010, 64, "", nil, types.FLTACCESS},
		{0x10100, 5, "", ErrTooLong, 0},
		{0x10100, 6, "hello", nil, 0},
	} {
		got, err := as.CString(c.at, c.max)
		if c.fault != 0 {
			if ae, ok := err.(*AccessError); !ok || ae.Fault != c.fault || got != "" {
				t.Errorf("CString(%#x, %d) = %q, %v; want fault %s", c.at, c.max, got, err, types.FltName(c.fault))
			}
			continue
		}
		if got != c.want || err != c.err {
			t.Errorf("CString(%#x, %d) = %q, %v; want %q, %v", c.at, c.max, got, err, c.want, c.err)
		}
	}
	if as.Stats.GrowStack != 1 {
		t.Errorf("GrowStack = %d, want 1: the string in the growth region grows the stack", as.Stats.GrowStack)
	}
}
