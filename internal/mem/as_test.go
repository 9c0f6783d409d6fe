package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func newTestAS() *AS { return NewAS(4096) }

func mustMap(t *testing.T, as *AS, a MapArgs) *Seg {
	t.Helper()
	s, err := as.Map(a)
	if err != nil {
		t.Fatalf("Map(%+v): %v", a, err)
	}
	return s
}

func TestMapBasics(t *testing.T) {
	as := newTestAS()
	s := mustMap(t, as, MapArgs{Base: 0x10000, Len: 100, Prot: ProtRW, Fixed: true})
	if s.Base != 0x10000 {
		t.Fatalf("base = %#x", s.Base)
	}
	if s.Len != 4096 {
		t.Fatalf("len should round to a page, got %d", s.Len)
	}
	if as.VirtSize() != 4096 {
		t.Fatalf("VirtSize = %d", as.VirtSize())
	}
	if as.NSegs() != 1 {
		t.Fatalf("NSegs = %d", as.NSegs())
	}
}

func TestMapOverlapRejected(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 8192, Prot: ProtRW, Fixed: true})
	if _, err := as.Map(MapArgs{Base: 0x11000, Len: 4096, Prot: ProtRW, Fixed: true}); err == nil {
		t.Fatal("overlapping fixed mapping should fail")
	}
	// Non-fixed relocates past the conflict.
	s := mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW})
	if s.Base != 0x12000 {
		t.Fatalf("relocated base = %#x, want 0x12000", s.Base)
	}
}

func TestMapUnalignedFixedRejected(t *testing.T) {
	as := newTestAS()
	if _, err := as.Map(MapArgs{Base: 0x10001, Len: 10, Prot: ProtRW, Fixed: true}); err == nil {
		t.Fatal("unaligned fixed mapping should fail")
	}
}

func TestFindSeg(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x30000, Len: 4096, Prot: ProtRX, Fixed: true})
	if s := as.FindSeg(0x10500); s == nil || s.Base != 0x10000 {
		t.Fatal("FindSeg in first mapping failed")
	}
	if s := as.FindSeg(0x20000); s != nil {
		t.Fatal("FindSeg in hole should be nil")
	}
	if s := as.FindSeg(0x30FFF); s == nil || s.Base != 0x30000 {
		t.Fatal("FindSeg at end of second mapping failed")
	}
	if s := as.FindSeg(0x31000); s != nil {
		t.Fatal("FindSeg just past end should be nil")
	}
}

func TestReadWritePrivateAnon(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 8192, Prot: ProtRW, Fixed: true})
	// Fresh anon memory reads as zeros.
	buf := make([]byte, 16)
	n, err := as.ReadAt(buf, 0x10000)
	if err != nil || n != 16 {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("anon memory should be zero-filled")
		}
	}
	msg := []byte("hello, world")
	if _, err := as.WriteAt(msg, 0x10010); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := as.ReadAt(got, 0x10010); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestIOUnmappedStartFails(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	if _, err := as.ReadAt(make([]byte, 4), 0x50000); err != ErrNotMapped {
		t.Fatalf("read in unmapped area: err=%v, want ErrNotMapped", err)
	}
	if _, err := as.WriteAt([]byte{1}, 0x50000); err != ErrNotMapped {
		t.Fatalf("write in unmapped area: err=%v, want ErrNotMapped", err)
	}
}

func TestIOTruncatedAtBoundary(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	// Read extending past the end of the mapping is truncated, not failed.
	buf := make([]byte, 100)
	n, err := as.ReadAt(buf, 0x10000+4096-10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("read n = %d, want 10", n)
	}
	// This includes writes as well as reads.
	n, err = as.WriteAt(buf, 0x10000+4096-10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("write n = %d, want 10", n)
	}
}

func TestIOCrossesAdjacentSegs(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x11000, Len: 4096, Prot: ProtRW, Fixed: true})
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	if n, err := as.WriteAt(data, 0x11000-32); err != nil || n != 64 {
		t.Fatalf("write across segs: n=%d err=%v", n, err)
	}
	got := make([]byte, 64)
	if n, err := as.ReadAt(got, 0x11000-32); err != nil || n != 64 {
		t.Fatalf("read across segs: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-seg round trip mismatch")
	}
}

func TestCopyOnWriteIsolation(t *testing.T) {
	// Two private mappings of the same object share content until one is
	// written; then the write is invisible to the other and to the object.
	obj := &ByteObject{Name: "/bin/a.out", Data: bytes.Repeat([]byte{0xAB}, 8192)}
	as1, as2 := newTestAS(), newTestAS()
	mustMap(t, as1, MapArgs{Base: 0x80000000, Len: 8192, Prot: ProtRX, Obj: obj, Fixed: true})
	mustMap(t, as2, MapArgs{Base: 0x80000000, Len: 8192, Prot: ProtRX, Obj: obj, Fixed: true})

	// Plant a "breakpoint" in as1 despite the mapping being read/exec.
	if _, err := as1.WriteAt([]byte{0xCC}, 0x80000100); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	as1.ReadAt(b, 0x80000100)
	if b[0] != 0xCC {
		t.Fatal("write not visible in as1")
	}
	as2.ReadAt(b, 0x80000100)
	if b[0] != 0xAB {
		t.Fatal("COW leak: write visible in as2")
	}
	if obj.Data[0x100] != 0xAB {
		t.Fatal("COW leak: write corrupted the a.out object")
	}
	if as1.Stats.COWFaults != 1 {
		t.Fatalf("COWFaults = %d, want 1", as1.Stats.COWFaults)
	}
}

func TestSharedMappingWritesThrough(t *testing.T) {
	anon := NewAnon("shm", 4096)
	as1, as2 := newTestAS(), newTestAS()
	mustMap(t, as1, MapArgs{Base: 0x40000, Len: 4096, Prot: ProtRW, Shared: true, Obj: anon, Fixed: true})
	mustMap(t, as2, MapArgs{Base: 0x70000, Len: 4096, Prot: ProtRW, Shared: true, Obj: anon, Fixed: true})
	as1.WriteAt([]byte("shared!"), 0x40010)
	got := make([]byte, 7)
	as2.ReadAt(got, 0x70010)
	if string(got) != "shared!" {
		t.Fatalf("shared mapping not shared: %q", got)
	}
}

func TestUnmapSplits(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 3 * 4096, Prot: ProtRW, Fixed: true})
	as.WriteAt([]byte{1}, 0x10000)                  // page 1
	as.WriteAt([]byte{2}, 0x10000+2*4096)           // page 3
	if err := as.Unmap(0x11000, 4096); err != nil { // carve out middle page
		t.Fatal(err)
	}
	if as.NSegs() != 2 {
		t.Fatalf("NSegs = %d, want 2", as.NSegs())
	}
	if _, err := as.ReadAt(make([]byte, 1), 0x11000); err != ErrNotMapped {
		t.Fatal("middle page should be unmapped")
	}
	b := make([]byte, 1)
	as.ReadAt(b, 0x10000)
	if b[0] != 1 {
		t.Fatal("low split lost private page")
	}
	as.ReadAt(b, 0x10000+2*4096)
	if b[0] != 2 {
		t.Fatal("high split lost private page")
	}
}

func TestMprotect(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 2 * 4096, Prot: ProtRW, Fixed: true})
	if err := as.Mprotect(0x10000, 4096, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := as.AccessWrite(0x10000, make([]byte, 4)); err == nil {
		t.Fatal("write to read-only page should fault")
	} else if ae := err.(*AccessError); ae.Fault != types.FLTACCESS {
		t.Fatalf("fault = %s, want FLTACCESS", types.FltName(ae.Fault))
	}
	if err := as.AccessWrite(0x11000, make([]byte, 4)); err != nil {
		t.Fatalf("second page should still be writable: %v", err)
	}
	// Restoring within MaxProt works; exceeding it fails.
	if err := as.Mprotect(0x10000, 4096, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(0x10000, 4096, ProtRWX); err == nil {
		t.Fatal("mprotect beyond MaxProt should fail")
	}
}

func TestMprotectUnmappedFails(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	if err := as.Mprotect(0x10000, 2*4096, ProtRead); err == nil {
		t.Fatal("mprotect over a hole should fail")
	}
}

func TestCheckAccessFaults(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRX, Fixed: true})
	if err := as.AccessRead(0x50000, make([]byte, 4)); err == nil {
		t.Fatal("unmapped access should fault")
	} else if err.(*AccessError).Fault != types.FLTBOUNDS {
		t.Fatal("unmapped access should be FLTBOUNDS")
	}
	if err := as.AccessWrite(0x10000, make([]byte, 4)); err == nil {
		t.Fatal("write to text should fault")
	} else if err.(*AccessError).Fault != types.FLTACCESS {
		t.Fatal("protection violation should be FLTACCESS")
	}
	if err := as.AccessFetch(0x10000, make([]byte, 4)); err != nil {
		t.Fatalf("exec of text should be fine: %v", err)
	}
}

func TestStackGrowth(t *testing.T) {
	as := newTestAS()
	stk := mustMap(t, as, MapArgs{Base: 0x7FFF0000, Len: 4096, Prot: ProtRW, Kind: KindStack, Fixed: true})
	as.SetStack(stk, 0x7FF00000)
	// An access below the stack grows it automatically.
	if err := as.AccessWrite(0x7FFEE000, make([]byte, 4)); err != nil {
		t.Fatalf("stack growth access failed: %v", err)
	}
	if stk.Base != 0x7FFEE000 {
		t.Fatalf("stack base = %#x", stk.Base)
	}
	if as.Stats.GrowStack != 1 {
		t.Fatalf("GrowStack = %d", as.Stats.GrowStack)
	}
	// Below the limit it does not grow.
	if err := as.AccessWrite(0x7FE00000, make([]byte, 4)); err == nil {
		t.Fatal("access below stack limit should fault")
	}
}

func TestBrkGrowth(t *testing.T) {
	as := newTestAS()
	brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Kind: KindBreak, Fixed: true})
	as.SetBrk(brk)
	if err := as.Brk(0x20000 + 3*4096); err != nil {
		t.Fatal(err)
	}
	if brk.Len != 3*4096 {
		t.Fatalf("brk len = %d", brk.Len)
	}
	as.WriteAt([]byte{7}, 0x20000+2*4096)
	// Shrink drops pages past the new end.
	if err := as.Brk(0x20000 + 4096); err != nil {
		t.Fatal(err)
	}
	if brk.Len != 4096 {
		t.Fatalf("brk len after shrink = %d", brk.Len)
	}
	if err := as.Brk(0x20000 - 4096); err == nil {
		t.Fatal("brk below base should fail")
	}
	// Growth into another mapping fails.
	mustMap(t, as, MapArgs{Base: 0x22000, Len: 4096, Prot: ProtRW, Fixed: true})
	if err := as.Brk(0x20000 + 4*4096); err == nil {
		t.Fatal("brk into another mapping should fail")
	}
}

// A break shrunk to its base keeps an empty segment that the invariant
// checker accepts, that covers no address, and that grows again.
func TestBrkShrinkToBase(t *testing.T) {
	as := newTestAS()
	brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Kind: KindBreak, Fixed: true})
	as.SetBrk(brk)
	as.WriteAt([]byte{7}, 0x20000)
	if err := as.Brk(0x20000); err != nil {
		t.Fatal(err)
	}
	if brk.Len != 0 || as.BrkSeg() != brk {
		t.Fatalf("brk at base: len %d, segment kept %v", brk.Len, as.BrkSeg() == brk)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatalf("empty break rejected: %v", err)
	}
	if _, err := as.ReadAt(make([]byte, 1), 0x20000); err == nil {
		t.Fatal("the empty break still maps its base")
	}
	if err := as.Brk(0x20000 + 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := as.WriteAt([]byte{9}, 0x20000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if _, err := as.ReadAt(got, 0x20000); err != nil || got[0] != 9 {
		t.Fatalf("store after regrowth read back %v, %v", got, err)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Any other empty segment is still a violation.
	as.segs[0].Len = 0
	as.brk = nil
	if err := as.CheckInvariants(); err == nil {
		t.Fatal("an empty non-break segment passed the checker")
	}
}

func TestDupCopiesPrivateState(t *testing.T) {
	obj := &ByteObject{Name: "a.out", Data: bytes.Repeat([]byte{1}, 4096)}
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRX, Obj: obj, Fixed: true})
	stk := mustMap(t, as, MapArgs{Base: 0x7FFF0000, Len: 4096, Prot: ProtRW, Kind: KindStack, Fixed: true})
	as.SetStack(stk, 0x7FF00000)
	as.WriteAt([]byte{0xCC}, 0x10000)

	child := as.Dup()
	if child.NSegs() != 2 {
		t.Fatalf("child NSegs = %d", child.NSegs())
	}
	b := make([]byte, 1)
	child.ReadAt(b, 0x10000)
	if b[0] != 0xCC {
		t.Fatal("child should inherit parent's private pages")
	}
	// Writes after fork are independent.
	child.WriteAt([]byte{0xDD}, 0x10000)
	as.ReadAt(b, 0x10000)
	if b[0] != 0xCC {
		t.Fatal("child write leaked into parent")
	}
	if child.StackSeg() == nil {
		t.Fatal("child should keep the stack designation")
	}
	if child.StackSeg() == as.StackSeg() {
		t.Fatal("child stack seg must be a copy")
	}
}

func TestMapStringFigure2Style(t *testing.T) {
	as := NewAS(2048) // the paper's machine used 2K pages, so 26K stays 26K
	obj := &ByteObject{Name: "/bin/demo", Data: make([]byte, 26*1024)}
	mustMap(t, as, MapArgs{Base: 0x80000000, Len: 26 * 1024, Prot: ProtRX, Obj: obj, Kind: KindText, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x80008000, Len: 6 * 1024, Prot: ProtRW, Obj: obj, Off: 26 * 1024, Kind: KindData, Fixed: true})
	out := as.MapString()
	want := "80000000     26K read/exec  [text]\n80008000      6K read/write [data]\n"
	if out != want {
		t.Fatalf("MapString:\n%s\nwant:\n%s", out, want)
	}
}

// Property: after any sequence of non-fixed mappings, segments are sorted and
// non-overlapping.
func TestQuickMappingInvariant(t *testing.T) {
	f := func(reqs []struct {
		Base uint16
		Len  uint16
	}) bool {
		as := newTestAS()
		for _, r := range reqs {
			l := uint32(r.Len)%(16*4096) + 1
			as.Map(MapArgs{Base: uint32(r.Base) * 4096, Len: l, Prot: ProtRW})
		}
		segs := as.Segs()
		for i := 1; i < len(segs); i++ {
			if segs[i-1].End() > uint64(segs[i].Base) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a write followed by a read at the same offset returns the data,
// for any in-bounds offset.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 64 * 1024, Prot: ProtRW, Fixed: true})
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		o := int64(0x10000) + int64(off)%int64(60*1024)
		n, err := as.WriteAt(data, o)
		if err != nil || n != len(data) {
			return false
		}
		got := make([]byte, len(data))
		n, err = as.ReadAt(got, o)
		return err == nil && n == len(data) && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
