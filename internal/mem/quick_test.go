package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// Property: after Dup, writes to either space are invisible to the other.
func TestQuickDupIsolation(t *testing.T) {
	f := func(off uint16, val byte) bool {
		parent := NewAS(4096)
		parent.Map(MapArgs{Base: 0x10000, Len: 16384, Prot: ProtRW, Fixed: true})
		addr := int64(0x10000) + int64(off)%16380
		parent.WriteAt([]byte{1, 2, 3, 4}, addr)
		child := parent.Dup()
		child.WriteAt([]byte{val}, addr)
		pb := make([]byte, 1)
		parent.ReadAt(pb, addr)
		cb := make([]byte, 1)
		child.ReadAt(cb, addr)
		if pb[0] != 1 {
			return false // child write leaked into parent
		}
		if cb[0] != val {
			return false
		}
		// And the other direction.
		parent.WriteAt([]byte{0xEE}, addr+1)
		child.ReadAt(cb, addr+1)
		return cb[0] == 2 // the pre-Dup value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mprotect is atomic — on failure, the original permissions of
// every page are intact.
func TestQuickMprotectAtomic(t *testing.T) {
	f := func(n uint8) bool {
		as := NewAS(4096)
		as.Map(MapArgs{Base: 0x10000, Len: 4 * 4096, Prot: ProtRW, Fixed: true})
		// A range extending past the mapping: must fail and change nothing.
		length := uint32(n)%8*4096 + 5*4096
		if err := as.Mprotect(0x10000, length, ProtRead); err == nil {
			return false
		}
		for a := uint32(0x10000); a < 0x10000+4*4096; a += 4096 {
			if err := as.AccessWrite(a, make([]byte, 4)); err != nil {
				return false // a page lost its write permission
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmap of a sub-range never affects data outside it.
func TestQuickUnmapPreservesNeighbors(t *testing.T) {
	f := func(pageIdx uint8) bool {
		as := NewAS(4096)
		as.Map(MapArgs{Base: 0x10000, Len: 8 * 4096, Prot: ProtRW, Fixed: true})
		payload := []byte("sentinel")
		for pg := 0; pg < 8; pg++ {
			as.WriteAt(payload, int64(0x10000+pg*4096))
		}
		victim := uint32(pageIdx) % 8
		as.Unmap(0x10000+victim*4096, 4096)
		for pg := uint32(0); pg < 8; pg++ {
			got := make([]byte, len(payload))
			_, err := as.ReadAt(got, int64(0x10000+pg*4096))
			if pg == victim {
				if err == nil {
					return false // unmapped page still readable
				}
				continue
			}
			if err != nil || !bytes.Equal(got, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a watchpoint fires for exactly the accesses that overlap it.
func TestQuickWatchpointPrecision(t *testing.T) {
	f := func(wOff, aOff uint8, wLen, aLen uint8) bool {
		as := NewAS(4096)
		as.Map(MapArgs{Base: 0x10000, Len: 4096, Prot: ProtRW, Fixed: true})
		wl := uint32(wLen)%16 + 1
		al := int(aLen)%16 + 1
		wAddr := 0x10000 + uint32(wOff)
		aAddr := 0x10000 + uint32(aOff)
		as.SetWatch(wAddr, wl, ProtWrite)
		err := as.AccessWrite(aAddr, make([]byte, al))
		overlaps := uint64(aAddr) < uint64(wAddr)+uint64(wl) &&
			uint64(aAddr)+uint64(al) > uint64(wAddr)
		if overlaps {
			ae, ok := err.(*AccessError)
			return ok && ae.Fault == types.FLTWATCH
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
