package mem

import (
	"bytes"
	"testing"
)

// genOf asserts the generation moved (or not) across op and returns the new
// value.
func genStep(t *testing.T, as *AS, name string, wantBump bool, op func()) {
	t.Helper()
	before := as.Gen()
	op()
	if bumped := as.Gen() != before; bumped != wantBump {
		t.Fatalf("%s: gen bump = %v, want %v (gen %d -> %d)",
			name, bumped, wantBump, before, as.Gen())
	}
}

// TestGenBumpPerOp pins the invalidation protocol: every operation that can
// change what PageFrame returns must bump Gen(), and pure reads must not.
func TestGenBumpPerOp(t *testing.T) {
	as := NewAS(4096)
	var seg *Seg
	genStep(t, as, "Map", true, func() {
		seg = mustMap(t, as, MapArgs{Base: 0x10000, Len: 3 * 4096, Prot: ProtRW, Fixed: true})
	})
	genStep(t, as, "ReadAt", false, func() {
		var b [4]byte
		as.ReadAt(b[:], 0x10000)
	})
	genStep(t, as, "WriteAt materialize", true, func() {
		if _, err := as.WriteAt([]byte{1, 2, 3, 4}, 0x10000); err != nil {
			t.Fatal(err)
		}
	})
	genStep(t, as, "WriteAt same page again", false, func() {
		if _, err := as.WriteAt([]byte{5}, 0x10001); err != nil {
			t.Fatal(err)
		}
	})
	genStep(t, as, "Mprotect", true, func() {
		if err := as.Mprotect(0x11000, 4096, ProtRead); err != nil {
			t.Fatal(err)
		}
	})
	genStep(t, as, "SetWatch", true, func() { as.SetWatch(0x10010, 4, ProtWrite) })
	genStep(t, as, "ClearWatch", true, func() { as.ClearWatch(0x10010) })
	genStep(t, as, "SetWatch 2", true, func() { as.SetWatch(0x10020, 4, ProtRead) })
	genStep(t, as, "ClearAllWatches", true, func() { as.ClearAllWatches() })
	genStep(t, as, "Unmap", true, func() {
		if err := as.Unmap(0x12000, 4096); err != nil {
			t.Fatal(err)
		}
	})

	brk := mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetBrk(brk)
	genStep(t, as, "Brk grow", true, func() {
		if err := as.Brk(0x22000); err != nil {
			t.Fatal(err)
		}
	})
	genStep(t, as, "Brk shrink", true, func() {
		if err := as.Brk(0x21000); err != nil {
			t.Fatal(err)
		}
	})

	stack := mustMap(t, as, MapArgs{Base: 0x80000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetStack(stack, 0x70000)
	genStep(t, as, "stack growth", true, func() {
		if err := as.CheckAccess(0x7f000, 4, ProtWrite); err != nil {
			t.Fatal(err)
		}
	})
	if seg == nil {
		t.Fatal("map lost")
	}
}

// TestPageFrameCases pins which pages the address space exposes to the TLB
// and which it refuses.
func TestPageFrameCases(t *testing.T) {
	as := NewAS(4096)

	if _, ok := as.PageFrame(0x10000); ok {
		t.Fatal("unmapped page got a frame")
	}

	// Private anonymous, unmaterialized: read-only zero frame.
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	f, ok := as.PageFrame(0x10000)
	if !ok || f.Writable || f.Obj != nil {
		t.Fatalf("anon unmaterialized: frame=%+v ok=%v, want read-only zero frame", f, ok)
	}
	for _, b := range f.Data {
		if b != 0 {
			t.Fatal("zero frame not zero")
		}
	}

	// Materialized private page: writable frame aliasing live storage.
	if _, err := as.WriteAt([]byte{0xaa}, 0x10004); err != nil {
		t.Fatal(err)
	}
	f, ok = as.PageFrame(0x10000)
	if !ok || !f.Writable || f.Obj != nil {
		t.Fatalf("materialized page: frame=%+v ok=%v, want writable frame", f, ok)
	}
	f.Data[8] = 0x55
	var got [1]byte
	as.ReadAt(got[:], 0x10008)
	if got[0] != 0x55 {
		t.Fatal("frame write not visible through slow path: frame is not live storage")
	}

	// Shared mapping: never a frame.
	obj := &ByteObject{Name: "o", Data: bytes.Repeat([]byte{7}, 8192)}
	mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRW, Shared: true, Obj: obj, Fixed: true})
	if _, ok := as.PageFrame(0x20000); ok {
		t.Fatal("shared page got a frame")
	}

	// Watched page: never a frame; clearing the watch re-exposes it.
	as.SetWatch(0x10004, 4, ProtWrite)
	if _, ok := as.PageFrame(0x10000); ok {
		t.Fatal("watched page got a frame")
	}
	as.ClearWatch(0x10004)
	if _, ok := as.PageFrame(0x10000); !ok {
		t.Fatal("page still refused after watch cleared")
	}

	// Private object-backed, page fully inside the object: aliasing frame
	// carrying the object revision.
	mustMap(t, as, MapArgs{Base: 0x30000, Len: 8192, Prot: ProtRX, Obj: obj, Fixed: true})
	f, ok = as.PageFrame(0x30000)
	if !ok || f.Writable || f.Obj == nil {
		t.Fatalf("object page: frame=%+v ok=%v, want read-only object frame", f, ok)
	}
	if &f.Data[0] != &obj.Data[0] {
		t.Fatal("full object page should alias the object's storage")
	}

	// Private object-backed, page extending past the object: zero-padded
	// snapshot, still revision-guarded.
	short := &ByteObject{Name: "s", Data: []byte{1, 2, 3}}
	mustMap(t, as, MapArgs{Base: 0x40000, Len: 4096, Prot: ProtRX, Obj: short, Fixed: true})
	f, ok = as.PageFrame(0x40000)
	if !ok || f.Obj == nil {
		t.Fatalf("short object page: frame=%+v ok=%v, want padded snapshot", f, ok)
	}
	if len(f.Data) != 4096 || !bytes.Equal(f.Data[:3], []byte{1, 2, 3}) || f.Data[3] != 0 {
		t.Fatal("padded snapshot content wrong")
	}

	// COW materialization over the object makes the page writable and
	// drops the object linkage.
	as.Mprotect(0x30000, 4096, ProtRW)
	if _, err := as.WriteAt([]byte{9}, 0x30000); err != nil {
		t.Fatal(err)
	}
	f, ok = as.PageFrame(0x30000)
	if !ok || !f.Writable || f.Obj != nil {
		t.Fatalf("post-COW page: frame=%+v ok=%v, want writable private frame", f, ok)
	}
}

// TestSegsViewStable pins that a view taken before a mutating operation is
// not corrupted by it: the operations that rebuild in place must build fresh
// slices (or only append), never scribble over entries a reader may still be
// walking. Readers still must not use a view across a Gen() change; this
// test guards the weaker property the /proc readers rely on implicitly when
// a mutation happens after their walk.
func TestSegsViewStable(t *testing.T) {
	as := NewAS(4096)
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRead, Fixed: true})
	view := as.SegsView()
	if len(view) != 2 {
		t.Fatalf("view len = %d", len(view))
	}
	gen := as.Gen()
	mustMap(t, as, MapArgs{Base: 0x30000, Len: 4096, Prot: ProtRW, Fixed: true})
	if as.Gen() == gen {
		t.Fatal("Map did not bump gen: stale views would go undetected")
	}
	if view[0].Base != 0x10000 || view[1].Base != 0x20000 {
		t.Fatalf("old view corrupted by Map: %#x %#x", view[0].Base, view[1].Base)
	}
}

func TestWatchesViewStable(t *testing.T) {
	as := NewAS(4096)
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	as.SetWatch(0x10000, 4, ProtWrite)
	as.SetWatch(0x10010, 4, ProtRead)
	view := as.WatchesView()
	if len(view) != 2 || as.NWatches() != 2 {
		t.Fatalf("view len = %d, NWatches = %d", len(view), as.NWatches())
	}
	as.ClearWatch(0x10000)
	if view[0].Addr != 0x10000 || view[1].Addr != 0x10010 {
		t.Fatalf("old view corrupted by ClearWatch: %#x %#x", view[0].Addr, view[1].Addr)
	}
	if n := as.NWatches(); n != 1 {
		t.Fatalf("NWatches after clear = %d", n)
	}
}

// TestObjectFrameRevalidation pins the revision half of the protocol: a
// cached object frame must be detectably stale after the object changes,
// even though the address space's generation does not move.
func TestObjectFrameRevalidation(t *testing.T) {
	as := NewAS(4096)
	obj := &ByteObject{Name: "o", Data: bytes.Repeat([]byte{7}, 4096)}
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRX, Obj: obj, Fixed: true})
	f, ok := as.PageFrame(0x10000)
	if !ok || f.Obj == nil {
		t.Fatal("no object frame")
	}
	if f.Obj.ObjRev() != f.Rev {
		t.Fatal("fresh frame already stale")
	}
	// ByteObject is immutable (constant revision 0); the mutable-object
	// revalidation path is exercised end to end by the memfs-backed kernel
	// tests. Here, check the Dup'd space starts a fresh protocol: frames
	// from the parent must not validate against the child.
	child := as.Dup()
	cf, ok := child.PageFrame(0x10000)
	if !ok {
		t.Fatal("child lost the mapping")
	}
	if &cf == &f {
		t.Fatal("frames aliased across Dup")
	}
}

// revObj is a mutable RevBytes object: tests change Data and bump rev by
// hand, the way memfs does on every write.
type revObj struct {
	ByteObject
	rev uint64
}

func (o *revObj) ObjBytes() ([]byte, uint64) { return o.Data, o.rev }
func (o *revObj) ObjRev() uint64             { return o.rev }

func sameSlice(a, b []byte) bool { return len(a) == len(b) && &a[0] == &b[0] }

// TestPaddedPageMemo pins the memo of the page straddling an object's end:
// a refill at an unchanged revision returns the same slice and allocates
// nothing, a revision bump yields the new bytes, and copy-on-write of the
// page drops the memo so the dead copy is not kept.
func TestPaddedPageMemo(t *testing.T) {
	as := NewAS(4096)
	obj := &revObj{ByteObject: ByteObject{Name: "text", Data: []byte{1, 2, 3}}}
	seg := mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRX, MaxProt: ProtRWX, Obj: obj, Fixed: true})

	f1, ok := as.PageFrame(0x10000)
	if !ok || f1.Writable || f1.Obj == nil {
		t.Fatalf("padded page: frame=%+v ok=%v, want read-only object frame", f1, ok)
	}
	f2, _ := as.PageFrame(0x10abc)
	if !sameSlice(f1.Data, f2.Data) {
		t.Fatal("refill at an unchanged revision built a new padded copy")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { as.PageFrame(0x10000) }); n != 0 {
			t.Fatalf("refill at an unchanged revision: %.1f allocs, want 0", n)
		}
	}

	// The object changes and grows, still short of the page end.
	obj.Data = []byte{4, 5, 6, 7}
	obj.rev++
	f3, ok := as.PageFrame(0x10000)
	if !ok || f3.Rev != obj.rev || !bytes.Equal(f3.Data[:5], []byte{4, 5, 6, 7, 0}) {
		t.Fatalf("after a revision bump: rev=%d data=%v, want rev %d and the new bytes", f3.Rev, f3.Data[:5], obj.rev)
	}
	if sameSlice(f1.Data, f3.Data) || !bytes.Equal(f1.Data[:4], []byte{1, 2, 3, 0}) {
		t.Fatal("a revision bump rewrote the old padded copy instead of making a new one")
	}

	// Copy-on-write of the page (a breakpoint plant) drops the memo.
	if seg.tail == nil {
		t.Fatal("no memo before copy-on-write")
	}
	if _, err := as.WriteAt([]byte{9}, 0x10000); err != nil {
		t.Fatal(err)
	}
	if seg.tail != nil {
		t.Fatal("copy-on-write left the padded copy memoized")
	}
	f4, ok := as.PageFrame(0x10000)
	if !ok || !f4.Writable || f4.Obj != nil || f4.Data[0] != 9 || f4.Data[1] != 5 {
		t.Fatalf("post-COW page: frame=%+v ok=%v, want the writable private copy", f4, ok)
	}
}

// TestPaddedPageDup pins that a forked child may share the parent's padded
// copy but never gets it as a writable frame: the child's first store
// copies, and neither the parent's frame nor the object sees it.
func TestPaddedPageDup(t *testing.T) {
	as := NewAS(4096)
	obj := &revObj{ByteObject: ByteObject{Name: "text", Data: []byte{1, 2, 3}}}
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Obj: obj, Fixed: true})
	pf, _ := as.PageFrame(0x10000)

	child := as.Dup()
	cf, ok := child.PageFrame(0x10000)
	if !ok || cf.Writable || cf.Obj == nil {
		t.Fatalf("child frame=%+v ok=%v, want the read-only padded copy", cf, ok)
	}
	if _, err := child.WriteAt([]byte{8}, 0x10001); err != nil {
		t.Fatal(err)
	}
	cf, ok = child.PageFrame(0x10000)
	if !ok || !cf.Writable || sameSlice(cf.Data, pf.Data) {
		t.Fatal("child's writable frame aliases the shared padded copy")
	}
	if !bytes.Equal(cf.Data[:4], []byte{1, 8, 3, 0}) {
		t.Fatalf("child page = %v", cf.Data[:4])
	}
	pf2, _ := as.PageFrame(0x10000)
	if !sameSlice(pf.Data, pf2.Data) || !bytes.Equal(pf2.Data[:4], []byte{1, 2, 3, 0}) ||
		!bytes.Equal(obj.Data, []byte{1, 2, 3}) {
		t.Fatal("the child's store reached the parent's padded copy or the object")
	}
}

// TestSharedZeroPage pins that address spaces of one page size share one
// read-only zero page, for anonymous pages and for object pages wholly past
// the object's end, and that it is never handed out writable.
func TestSharedZeroPage(t *testing.T) {
	a, b := NewAS(4096), NewAS(4096)
	obj := &revObj{ByteObject: ByteObject{Name: "short", Data: []byte{1}}}
	mustMap(t, a, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
	mustMap(t, b, MapArgs{Base: 0x20000, Len: 8192, Prot: ProtRW, Obj: obj, Fixed: true})
	fa, _ := a.PageFrame(0x10000)
	fb, ok := b.PageFrame(0x21000)
	if !ok || fb.Obj == nil || fb.Rev != obj.rev {
		t.Fatalf("page past the object: frame=%+v ok=%v, want a revision-guarded frame", fb, ok)
	}
	if fa.Writable || fb.Writable || !sameSlice(fa.Data, fb.Data) {
		t.Fatal("zero frames are not the one shared read-only page")
	}
	if c := NewAS(1024); len(c.zero) != 1024 || sameSlice(c.zero, a.zero[:1024]) {
		t.Fatal("a 1 KiB address space does not get its own 1 KiB zero page")
	}
	for _, v := range fa.Data {
		if v != 0 {
			t.Fatal("shared zero page is not zero")
		}
	}
}
