package mem

import (
	"bytes"
	"errors"
	"testing"
)

// drainFreeList empties the frame free list, so a test sees only the frames
// it drops itself.
func drainFreeList() {
	freeFrames.mu.Lock()
	defer freeFrames.mu.Unlock()
	clear(freeFrames.f[:])
	freeFrames.n = 0
}

// dirtyFreeList fills the free list with fresh frames holding b in every
// byte: the worst case for a materialization that forgets to overwrite the
// frame it takes.
func dirtyFreeList(b byte) {
	freeFrames.mu.Lock()
	defer freeFrames.mu.Unlock()
	for i := range freeFrames.f {
		freeFrames.f[i] = bytes.Repeat([]byte{b}, DefaultPageSize)
	}
	freeFrames.n = frameCap
}

// freeListLen returns the number of frames on the free list.
func freeListLen() int {
	freeFrames.mu.Lock()
	defer freeFrames.mu.Unlock()
	return freeFrames.n
}

// onFreeList reports whether the frame pg is on the free list.
func onFreeList(pg []byte) bool {
	freeFrames.mu.Lock()
	defer freeFrames.mu.Unlock()
	for _, f := range freeFrames.f[:freeFrames.n] {
		if &f[0] == &pg[0] {
			return true
		}
	}
	return false
}

// TestDropWaitsForReclaim: a brk shrink and an Unmap park the frames they
// drop on the space, and only Reclaim hands them to the free list — the
// kernel calls it once no CPU can translate through them. A split keeps
// the neighbors' frames mapped.
func TestDropWaitsForReclaim(t *testing.T) {
	drainFreeList()
	as := newTestAS()
	brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Kind: KindBreak, Fixed: true})
	as.SetBrk(brk)
	if err := as.Brk(0x22000); err != nil {
		t.Fatal(err)
	}
	seg := mustMap(t, as, MapArgs{Base: 0x40000, Len: 3 * 4096, Prot: ProtRW, Fixed: true})
	for _, addr := range []uint32{0x20000, 0x21000, 0x40000, 0x41000, 0x42000} {
		if _, err := as.WriteAt([]byte{byte(addr >> 12)}, int64(addr)); err != nil {
			t.Fatal(err)
		}
	}
	shrunk, unmapped := brk.priv[0x21000], seg.priv[0x41000]
	if err := as.Brk(0x21000); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x41000, 4096); err != nil {
		t.Fatal(err)
	}
	if n := freeListLen(); n != 0 {
		t.Fatalf("free list holds %d frames before Reclaim", n)
	}
	if len(as.dropped) != 2 {
		t.Fatalf("space parked %d dropped frames, want 2", len(as.dropped))
	}
	as.Reclaim()
	if n := freeListLen(); n != 2 || !onFreeList(shrunk) || !onFreeList(unmapped) {
		t.Fatalf("after Reclaim the free list holds %d frames, want exactly the 2 dropped", n)
	}
	if len(as.dropped) != 0 {
		t.Fatalf("Reclaim left %d dropped frames", len(as.dropped))
	}
	for _, addr := range []uint32{0x20000, 0x40000, 0x42000} {
		b := make([]byte, 1)
		if _, err := as.ReadAt(b, int64(addr)); err != nil || b[0] != byte(addr>>12) {
			t.Fatalf("page %#x reads %v, %v after its neighbor was dropped", addr, b, err)
		}
	}
	if err := CheckFrames([]*AS{as}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroFillReusesDroppedFrame: after Reclaim the next zero-fill takes
// the dropped frame back, and clears the bytes the old page left in it.
func TestZeroFillReusesDroppedFrame(t *testing.T) {
	drainFreeList()
	as := newTestAS()
	brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Kind: KindBreak, Fixed: true})
	as.SetBrk(brk)
	if err := as.Brk(0x22000); err != nil {
		t.Fatal(err)
	}
	if _, err := as.WriteAt(bytes.Repeat([]byte{0xAA}, 4096), 0x21000); err != nil {
		t.Fatal(err)
	}
	old := brk.priv[0x21000]
	if err := as.Brk(0x21000); err != nil {
		t.Fatal(err)
	}
	as.Reclaim()
	if err := as.Brk(0x22000); err != nil {
		t.Fatal(err)
	}
	if err := as.AccessWrite(0x21064, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if pg := brk.priv[0x21000]; &pg[0] != &old[0] {
		t.Fatal("the zero-fill did not reuse the dropped frame")
	}
	want := make([]byte, 4096)
	want[0x64] = 7
	got := make([]byte, 4096)
	if _, err := as.ReadAt(got, 0x21000); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recycled zero-fill page reads %#x at offset %#x, want %#x", got[i], i, want[i])
		}
	}
	if as.Stats.MinorFaults != 2 {
		t.Fatalf("MinorFaults = %d, want 2", as.Stats.MinorFaults)
	}
}

// TestForkAndCheckpointFillDirtyFrames: Dup and the checkpoint copy draw
// their frames from the free list too, and overwrite every byte.
func TestForkAndCheckpointFillDirtyFrames(t *testing.T) {
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 2 * 4096, Prot: ProtRW, Fixed: true})
	pattern := make([]byte, 2*4096)
	for i := range pattern {
		pattern[i] = byte(i % 251)
	}
	if _, err := as.WriteAt(pattern, 0x10000); err != nil {
		t.Fatal(err)
	}
	check := func(name string, space *AS) {
		t.Helper()
		got := make([]byte, len(pattern))
		if _, err := space.ReadAt(got, 0x10000); err != nil || !bytes.Equal(got, pattern) {
			t.Fatalf("%s: private pages differ from the original (%v)", name, err)
		}
	}
	dirtyFreeList(0xAA)
	child := as.Dup()
	check("Dup", child)
	dirtyFreeList(0xAA)
	st := as.SaveState()
	if _, err := as.WriteAt(make([]byte, len(pattern)), 0x10000); err != nil {
		t.Fatal(err)
	}
	dirtyFreeList(0xAA)
	as.LoadState(st)
	check("SaveState/LoadState", as)
	if err := CheckFrames([]*AS{as, child}); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedSpaceNotMapped: a released space has no mappings left, so a
// reader still holding the pointer gets ErrNotMapped instead of whatever a
// recycled frame holds by then; its pages wait on dropped for Reclaim.
func TestReleasedSpaceNotMapped(t *testing.T) {
	drainFreeList()
	obj := &ByteObject{Name: "a.out", Data: bytes.Repeat([]byte{1}, 4096)}
	as := newTestAS()
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRX, Obj: obj, Fixed: true})
	brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 2 * 4096, Prot: ProtRW, Kind: KindBreak, Fixed: true})
	as.SetBrk(brk)
	for _, addr := range []int64{0x10000, 0x20000, 0x21000} {
		if _, err := as.WriteAt([]byte{9}, addr); err != nil {
			t.Fatal(err)
		}
	}
	genStep(t, as, "Release", true, as.Release)
	if as.NSegs() != 0 || as.BrkSeg() != nil || as.StackSeg() != nil {
		t.Fatal("Release left mappings or designations behind")
	}
	b := make([]byte, 1)
	for _, addr := range []int64{0x10000, 0x20000, 0x21000} {
		if _, err := as.ReadAt(b, addr); !errors.Is(err, ErrNotMapped) {
			t.Fatalf("ReadAt(%#x) on a released space: %v, want ErrNotMapped", addr, err)
		}
		if _, err := as.WriteAt(b, addr); !errors.Is(err, ErrNotMapped) {
			t.Fatalf("WriteAt(%#x) on a released space: %v, want ErrNotMapped", addr, err)
		}
		if _, ok := as.PageFrame(uint32(addr)); ok {
			t.Fatalf("PageFrame(%#x) on a released space succeeded", addr)
		}
	}
	if len(as.dropped) != 3 || freeListLen() != 0 {
		t.Fatalf("Release parked %d frames and freed %d, want 3 and 0", len(as.dropped), freeListLen())
	}
	as.Reclaim()
	if freeListLen() != 3 {
		t.Fatalf("Reclaim freed %d frames, want 3", freeListLen())
	}
}

// TestCheckFrames: the frame invariants catch a frame backing two pages, a
// free frame still backing a page, and dropped frames that missed Reclaim.
func TestCheckFrames(t *testing.T) {
	drainFreeList()
	a, b := newTestAS(), newTestAS()
	sa := mustMap(t, a, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	sb := mustMap(t, b, MapArgs{Base: 0x10000, Len: 2 * 4096, Prot: ProtRW, Fixed: true})
	a.WriteAt([]byte{1}, 0x10000)
	b.WriteAt([]byte{1}, 0x10000)
	b.WriteAt([]byte{1}, 0x11000)
	if err := CheckFrames([]*AS{a, b}); err != nil {
		t.Fatalf("clean spaces: %v", err)
	}

	saved := sb.priv[0x11000]
	sb.priv[0x11000] = sa.priv[0x10000]
	if err := CheckFrames([]*AS{a, b}); err == nil {
		t.Fatal("a frame backing two pages went unnoticed")
	}
	sb.priv[0x11000] = saved

	freeFrames.mu.Lock()
	freeFrames.f[0], freeFrames.n = saved, 1
	freeFrames.mu.Unlock()
	if err := CheckFrames([]*AS{a, b}); err == nil {
		t.Fatal("a free frame backing a page went unnoticed")
	}
	drainFreeList()

	if err := b.Unmap(0x11000, 4096); err != nil {
		t.Fatal(err)
	}
	if err := CheckFrames([]*AS{a, b}); err == nil {
		t.Fatal("a dropped frame awaiting Reclaim went unnoticed")
	}
	b.Reclaim()
	if err := CheckFrames([]*AS{a, b}); err != nil {
		t.Fatalf("after Reclaim: %v", err)
	}
}

// TestZeroFillAllocBudget pins the recycled fault path: once warm, growing
// the break page by page with a store to each fresh page, then shrinking it
// back and reclaiming, allocates nothing — every zero-fill takes a frame
// the previous cycle dropped.
func TestZeroFillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	drainFreeList()
	as := newTestAS()
	brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Kind: KindBreak, Fixed: true})
	as.SetBrk(brk)
	val := []byte{0x5A}
	cycle := func() {
		for i := uint32(1); i <= 8; i++ {
			if err := as.Brk(0x20000 + (i+1)*4096); err != nil {
				t.Fatal(err)
			}
			if err := as.AccessWrite(0x20000+i*4096, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.Brk(0x21000); err != nil {
			t.Fatal(err)
		}
		as.Reclaim()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("grow-store-shrink cycle of 8 pages: %v allocs/op, want 0", a)
	}
}

// TestFreeListConcurrent: spaces on several goroutines drop, reclaim and
// take frames through the one free list at once (as SMP CPUs do); every
// fresh page still reads zero and the frame invariants hold at the end.
func TestFreeListConcurrent(t *testing.T) {
	spaces := make([]*AS, 4)
	done := make(chan struct{})
	for g := range spaces {
		as := newTestAS()
		brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Kind: KindBreak, Fixed: true})
		as.SetBrk(brk)
		spaces[g] = as
		go func() {
			defer func() { done <- struct{}{} }()
			page := make([]byte, 4096)
			for i := 0; i < 200; i++ {
				if err := as.Brk(0x23000); err != nil {
					t.Error(err)
					return
				}
				for pb := int64(0x21000); pb < 0x23000; pb += 4096 {
					if err := as.AccessWrite(uint32(pb), []byte{0}); err != nil {
						t.Error(err)
						return
					}
					as.ReadAt(page, pb)
					if !bytes.Equal(page, zeroPage(4096)) {
						t.Errorf("fresh page %#x is dirty", pb)
						return
					}
					as.WriteAt(bytes.Repeat([]byte{0xAA}, 4096), pb)
				}
				as.Brk(0x21000)
				as.Reclaim()
			}
		}()
	}
	for range spaces {
		<-done
	}
	if err := CheckFrames(spaces); err != nil {
		t.Fatal(err)
	}
}
