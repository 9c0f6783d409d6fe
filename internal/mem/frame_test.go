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
		if err := as.AccessWrite(0x7f000, make([]byte, 4)); err != nil {
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
	if !ok || f.Writable {
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
	if !ok || !f.Writable {
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

	// Private object-backed, page fully inside the object: a read-only
	// frame aliasing the object's storage.
	mustMap(t, as, MapArgs{Base: 0x30000, Len: 8192, Prot: ProtRX, Obj: obj, Fixed: true})
	f, ok = as.PageFrame(0x30000)
	if !ok || f.Writable {
		t.Fatalf("object page: frame=%+v ok=%v, want read-only object frame", f, ok)
	}
	if &f.Data[0] != &obj.Data[0] {
		t.Fatal("full object page should alias the object's storage")
	}

	// Private object-backed, page straddling the end of an object without
	// zeroed slack to cover it (a ByteObject cuts its slice at its
	// length): no frame, and the slow path reads zeros past the end.
	// Copy-on-write (a breakpoint plant) then makes it a private page.
	short := &ByteObject{Name: "s", Data: []byte{1, 2, 3}}
	mustMap(t, as, MapArgs{Base: 0x40000, Len: 4096, Prot: ProtRX, Obj: short, Fixed: true})
	if f, ok = as.PageFrame(0x40000); ok {
		t.Fatalf("short object page: frame=%+v, want the slow path", f)
	}
	padded := []byte{1, 2, 3, 0, 0}
	buf := make([]byte, len(padded))
	if err := as.AccessRead(0x40000, buf); err != nil || !bytes.Equal(buf, padded) {
		t.Fatalf("short object page: AccessRead = %v, %v; want %v", buf, err, padded)
	}
	clear(buf)
	if _, err := as.ReadAt(buf, 0x40000); err != nil || !bytes.Equal(buf, padded) {
		t.Fatalf("short object page: ReadAt = %v, %v; want %v", buf, err, padded)
	}
	if _, err := as.WriteAt([]byte{9}, 0x40000); err != nil {
		t.Fatal(err)
	}
	f, ok = as.PageFrame(0x40000)
	if !ok || !f.Writable || !bytes.Equal(f.Data[:4], []byte{9, 2, 3, 0}) ||
		!bytes.Equal(short.Data, []byte{1, 2, 3}) {
		t.Fatalf("post-COW short page: ok=%v writable=%v object=%v, want a writable private copy of 9 2 3 0",
			ok, f.Writable, short.Data)
	}

	// COW materialization over the object makes the page a writable
	// private copy.
	as.Mprotect(0x30000, 4096, ProtRW)
	if _, err := as.WriteAt([]byte{9}, 0x30000); err != nil {
		t.Fatal(err)
	}
	f, ok = as.PageFrame(0x30000)
	if !ok || !f.Writable || &f.Data[0] == &obj.Data[0] {
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

// TestObjectFrameRevalidation pins the epoch half of the key: a cached
// object frame must be detectably stale after the exposed object changes,
// even though the address space's generation does not move, and handing
// out a frame moves nothing by itself.
func TestObjectFrameRevalidation(t *testing.T) {
	as := NewAS(4096)
	obj := &revObj{ByteObject: ByteObject{Name: "o", Data: bytes.Repeat([]byte{7}, 4096)}}
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRX, Obj: obj, Fixed: true})
	gen, epoch := as.Gen(), Epoch()
	f, ok := as.PageFrame(0x10000)
	if !ok || &f.Data[0] != &obj.Data[0] {
		t.Fatal("no object frame")
	}
	if as.Gen() != gen || Epoch() != epoch {
		t.Fatal("a fill moved the key")
	}
	obj.set(bytes.Repeat([]byte{8}, 4096))
	if as.Gen() != gen || Epoch() == epoch {
		t.Fatalf("object change: gen %d -> %d, epoch %d -> %d; want the epoch alone to move",
			gen, as.Gen(), epoch, Epoch())
	}
	if f, _ := as.PageFrame(0x10000); f.Data[0] != 8 {
		t.Fatal("a fresh frame under the new epoch serves the old bytes")
	}
	// Check the Dup'd space starts a fresh protocol: frames from the
	// parent must not validate against the child.
	child := as.Dup()
	cf, ok := child.PageFrame(0x10000)
	if !ok {
		t.Fatal("child lost the mapping")
	}
	if &cf == &f {
		t.Fatal("frames aliased across Dup")
	}
}

// revObj is a mutable RevBytes object whose whole capacity is exposed:
// tests change Data through set, which bumps the epoch the way memfs does
// on every write to an exposed file.
type revObj struct {
	ByteObject
}

func (o *revObj) ObjBytes() []byte { return o.Data }

func (o *revObj) set(data []byte) {
	o.Data = data
	BumpEpoch()
}

func sameSlice(a, b []byte) bool { return len(a) == len(b) && &a[0] == &b[0] }

// TestPaddedPageMemo pins that the page straddling an object's end is never
// copied into a memo. With zeroed slack covering the page, the frame
// aliases the object's own storage, so refills allocate nothing and every
// mapping shares one padded page. Without slack, the page has no frame and
// the slow path reads the object's current bytes, zero-padded, with no
// stale copy left behind when the object changes.
func TestPaddedPageMemo(t *testing.T) {
	as := NewAS(4096)
	store := make([]byte, 4096)
	copy(store, []byte{1, 2, 3})
	slack := &revObj{ByteObject: ByteObject{Name: "slack", Data: store[:3]}}
	mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRX, Obj: slack, Fixed: true})
	mustMap(t, as, MapArgs{Base: 0x20000, Len: 4096, Prot: ProtRX, Obj: slack, Fixed: true})

	f1, ok := as.PageFrame(0x10000)
	if !ok || f1.Writable || !sameSlice(f1.Data, store) {
		t.Fatalf("page within slack: frame writable=%v ok=%v, want a read-only alias of the storage", f1.Writable, ok)
	}
	f2, ok := as.PageFrame(0x20abc)
	if !ok || !sameSlice(f1.Data, f2.Data) {
		t.Fatal("two mappings of the object do not share one padded page")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { as.PageFrame(0x10000) }); n != 0 {
			t.Fatalf("refill of a padded page within slack: %.1f allocs, want 0", n)
		}
	}

	// No slack: the slow path, which follows the object as it changes.
	short := &revObj{ByteObject: ByteObject{Name: "short", Data: []byte{1, 2, 3}}}
	seg := mustMap(t, as, MapArgs{Base: 0x30000, Len: 4096, Prot: ProtRX, MaxProt: ProtRWX, Obj: short, Fixed: true})
	if f, ok := as.PageFrame(0x30000); ok {
		t.Fatalf("page without slack: frame=%+v, want the slow path", f)
	}
	buf := make([]byte, 5)
	if err := as.AccessRead(0x30000, buf); err != nil || !bytes.Equal(buf, []byte{1, 2, 3, 0, 0}) {
		t.Fatalf("page without slack: AccessRead = %v, %v", buf, err)
	}
	short.set([]byte{4, 5, 6, 7})
	if err := as.AccessRead(0x30000, buf); err != nil || !bytes.Equal(buf, []byte{4, 5, 6, 7, 0}) {
		t.Fatalf("after the object changed: AccessRead = %v, %v; want the new bytes", buf, err)
	}
	if len(seg.priv) != 0 {
		t.Fatal("reads of the padded page materialized a private copy")
	}

	// Copy-on-write (a breakpoint plant) makes a writable private copy of
	// the current bytes and leaves the object alone.
	if _, err := as.WriteAt([]byte{9}, 0x30000); err != nil {
		t.Fatal(err)
	}
	f4, ok := as.PageFrame(0x30000)
	if !ok || !f4.Writable || !bytes.Equal(f4.Data[:5], []byte{9, 5, 6, 7, 0}) ||
		!bytes.Equal(short.Data, []byte{4, 5, 6, 7}) {
		t.Fatalf("post-COW page: ok=%v writable=%v object=%v, want a writable private copy of 9 5 6 7 0",
			ok, f4.Writable, short.Data)
	}
}

// TestPaddedPageDup pins that a forked child never gets the padded page as
// a writable frame: with slack it shares the parent's read-only alias,
// without slack both take the slow path, and in both cases the child's
// first store copies, so neither the parent nor the object sees it.
func TestPaddedPageDup(t *testing.T) {
	store := make([]byte, 4096)
	copy(store, []byte{1, 2, 3})
	for _, tc := range []struct {
		name  string
		data  []byte
		frame bool
	}{
		{"slack", store[:3], true},
		{"no-slack", []byte{1, 2, 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := NewAS(4096)
			obj := &revObj{ByteObject: ByteObject{Name: "text", Data: tc.data}}
			mustMap(t, as, MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Obj: obj, Fixed: true})
			pf, pok := as.PageFrame(0x10000)

			child := as.Dup()
			cf, ok := child.PageFrame(0x10000)
			if ok != tc.frame || pok != tc.frame || cf.Writable ||
				(tc.frame && !sameSlice(cf.Data, pf.Data)) {
				t.Fatalf("child frame ok=%v writable=%v, parent ok=%v; want ok=%v and a read-only shared page",
					ok, cf.Writable, pok, tc.frame)
			}
			if _, err := child.WriteAt([]byte{8}, 0x10001); err != nil {
				t.Fatal(err)
			}
			cf, ok = child.PageFrame(0x10000)
			if !ok || !cf.Writable || (tc.frame && sameSlice(cf.Data, pf.Data)) {
				t.Fatal("child's store did not give it a writable private copy")
			}
			if !bytes.Equal(cf.Data[:4], []byte{1, 8, 3, 0}) {
				t.Fatalf("child page = %v", cf.Data[:4])
			}
			got := make([]byte, 4)
			if err := as.AccessRead(0x10000, got); err != nil || !bytes.Equal(got, []byte{1, 2, 3, 0}) ||
				!bytes.Equal(obj.Data, []byte{1, 2, 3}) || store[1] != 2 {
				t.Fatalf("the child's store reached the parent (%v, %v) or the object", got, err)
			}
		})
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
	if !ok {
		t.Fatalf("page past the object: frame=%+v ok=%v, want the zero page", fb, ok)
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
