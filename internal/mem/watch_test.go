package mem

import (
	"testing"

	"repro/internal/types"
)

func TestWatchpointFires(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetWatch(0x10100, 1, ProtWrite) // watch a single byte

	// Write to the watched byte fires FLTWATCH.
	err := as.AccessWrite(0x10100, make([]byte, 1))
	if err == nil {
		t.Fatal("watched write should fault")
	}
	if ae := err.(*AccessError); ae.Fault != types.FLTWATCH || ae.Addr != 0x10100 {
		t.Fatalf("got %v", ae)
	}
	// A 4-byte store overlapping the watched byte fires too.
	if err := as.AccessWrite(0x100FE, make([]byte, 4)); err == nil {
		t.Fatal("overlapping write should fault")
	}
	// A read does not fire a write watchpoint, but is a same-page recovery.
	before := as.Stats.WatchRecover
	if err := as.AccessRead(0x10100, make([]byte, 1)); err != nil {
		t.Fatalf("read of write-watched byte should not fault: %v", err)
	}
	if as.Stats.WatchRecover != before+1 {
		t.Fatal("read should count as a transparent recovery")
	}
}

func TestWatchpointSamePageRecovery(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetWatch(0x10FF0, 1, ProtWrite)

	// Unwatched data in the same page: access succeeds but is counted as a
	// recovered fault (the paper: the system recovers from machine faults
	// taken due to references to unwatched data in the same page).
	if err := as.AccessWrite(0x10000, make([]byte, 4)); err != nil {
		t.Fatalf("unwatched same-page write should succeed: %v", err)
	}
	if as.Stats.WatchRecover != 1 {
		t.Fatalf("WatchRecover = %d, want 1", as.Stats.WatchRecover)
	}
	// A different page entirely: no recovery cost.
	mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Fixed: true})
	if err := as.AccessWrite(0x20000, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if as.Stats.WatchRecover != 1 {
		t.Fatal("other-page access should not count a recovery")
	}
}

func TestWatchpointModes(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetWatch(0x10200, 8, ProtRead)
	if err := as.AccessRead(0x10204, make([]byte, 1)); err == nil {
		t.Fatal("read watchpoint should fire on read")
	}
	if err := as.AccessWrite(0x10204, make([]byte, 1)); err != nil {
		t.Fatal("read watchpoint should not fire on write")
	}
}

func TestWatchpointClear(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetWatch(0x10100, 4, ProtWrite)
	as.SetWatch(0x10200, 4, ProtWrite)
	as.ClearWatch(0x10100)
	if err := as.AccessWrite(0x10100, make([]byte, 4)); err != nil {
		t.Fatal("cleared watchpoint should not fire")
	}
	if err := as.AccessWrite(0x10200, make([]byte, 4)); err == nil {
		t.Fatal("remaining watchpoint should still fire")
	}
	as.ClearAllWatches()
	if err := as.AccessWrite(0x10200, make([]byte, 4)); err != nil {
		t.Fatal("ClearAllWatches should drop everything")
	}
	if len(as.Watches()) != 0 {
		t.Fatal("Watches should be empty")
	}
}

func TestWatchpointSpansPages(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 3 * 4096, Prot: ProtRW, Fixed: true})
	as.SetWatch(0x10FFC, 8, ProtWrite) // straddles a page boundary
	if err := as.AccessWrite(0x11002, make([]byte, 1)); err == nil {
		t.Fatal("watch spanning pages should fire on second page")
	}
	// Both touched pages count as watched for recovery purposes.
	if err := as.AccessWrite(0x11800, make([]byte, 1)); err != nil {
		t.Fatal("unwatched byte on second page should recover")
	}
	if as.Stats.WatchRecover != 1 {
		t.Fatalf("WatchRecover = %d", as.Stats.WatchRecover)
	}
}

// A watch may cover the whole address space, or run past its top, and
// still cost no more than a small one: setting it returns at once, pages
// under it refuse frame caching, and accesses through it fire.
func TestWatchpointHugeRange(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetWatch(0xFFFFF000, 0x2000, ProtWrite) // ends past 4 GiB
	as.SetWatch(0x100, 0xFFFFFF00, ProtRead)
	if _, ok := as.PageFrame(0x10000); ok {
		t.Fatal("a page under a watch was frame-cached")
	}
	if err := as.AccessRead(0x10010, make([]byte, 4)); err == nil {
		t.Fatal("read under the whole-space watch should fault")
	}
	if err := as.AccessWrite(0x10010, make([]byte, 4)); err != nil {
		t.Fatalf("write under a read watch should recover: %v", err)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAnonObject(t *testing.T) {
	a := NewAnon("", 4096)
	if a.ObjName() != "[anon]" {
		t.Fatal("default name")
	}
	buf := make([]byte, 10)
	a.ReadObj(buf, 100)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh anon should read zeros")
		}
	}
	if err := a.WriteObj([]byte("xyz"), 4094); err != nil { // page-crossing write
		t.Fatal(err)
	}
	got := make([]byte, 3)
	a.ReadObj(got, 4094)
	if string(got) != "xyz" {
		t.Fatalf("got %q", got)
	}
	if a.ObjSize() != 4097 {
		t.Fatalf("size = %d", a.ObjSize())
	}
}

func TestByteObjectReadOnly(t *testing.T) {
	b := &ByteObject{Name: "x", Data: []byte{1, 2, 3}}
	if err := b.WriteObj([]byte{9}, 0); err == nil {
		t.Fatal("ByteObject should be read-only")
	}
	buf := make([]byte, 5)
	b.ReadObj(buf, 1)
	if buf[0] != 2 || buf[1] != 3 || buf[2] != 0 {
		t.Fatalf("ReadObj zero-fill wrong: %v", buf)
	}
}

func TestProtString(t *testing.T) {
	cases := map[Prot]string{
		0:         "none",
		ProtRead:  "read",
		ProtRW:    "read/write",
		ProtRX:    "read/exec",
		ProtRWX:   "read/write/exec",
		ProtWrite: "write",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Prot(%d).String() = %q, want %q", p, got, want)
		}
	}
}
