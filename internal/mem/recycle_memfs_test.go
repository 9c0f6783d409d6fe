package mem_test

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/memfs"
)

// TestCOWFillDirtyFrame: a copy-on-write fill into a frame recycled full of
// 0xAA matches the backing object byte for byte, including the zeros past
// its end, for each Object the system maps: Anon, ByteObject and a memfs
// file. The fill relies on ReadObj writing every byte of its buffer.
func TestCOWFillDirtyFrame(t *testing.T) {
	const ps = mem.DefaultPageSize
	content := make([]byte, ps+904) // ends inside the second page
	for i := range content {
		content[i] = byte(i%250) + 1
	}
	anon := mem.NewAnon("", ps)
	if err := anon.WriteObj(content, 0); err != nil {
		t.Fatal(err)
	}
	fs := memfs.New(nil)
	if err := fs.WriteFile("/f", content, 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	file, err := fs.Object("/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []mem.Object{anon, &mem.ByteObject{Name: "image", Data: content}, file} {
		t.Run(obj.ObjName(), func(t *testing.T) {
			as := mem.NewAS(ps)
			// Three pages: one full, one straddling the end, one past it.
			if _, err := as.Map(mem.MapArgs{Base: 0x10000, Len: 3 * ps, Prot: mem.ProtRW, Obj: obj, Fixed: true}); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 3*ps)
			copy(want, content)
			mem.DirtyFreeList(0xAA)
			for pg := 0; pg < 3; pg++ {
				off := pg*ps + 8
				want[off] = 0xEE
				if err := as.AccessWrite(uint32(0x10000+off), want[off:off+1]); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]byte, 3*ps)
			if _, err := as.ReadAt(got, 0x10000); err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("byte %#x reads %#x, want %#x", i, got[i], want[i])
			}
			if st := as.StatsSnap(); st.COWFaults != 3 {
				t.Fatalf("COWFaults = %d, want 3", st.COWFaults)
			}
			got = make([]byte, len(content))
			obj.ReadObj(got, 0)
			if !bytes.Equal(got, content) {
				t.Fatal("the private stores reached the object")
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
