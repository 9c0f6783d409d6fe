package vcpu

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/mem"
)

// occupied runs CheckTLB (which requires every slot outside the occupancy
// mask to be empty) and reports how many slots are occupied.
func occupied(t *testing.T, c *CPU) int {
	t.Helper()
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}
	return bits.OnesCount64(c.tlb.used)
}

// TestTLBResetClearsOccupiedSlots pins the occupancy-mask reset: fills set
// the mask, a generation bump clears exactly the occupied slots, and a
// zero-valued TLB (whose tag 0 is a real page base) is cleared whole.
func TestTLBResetClearsOccupiedSlots(t *testing.T) {
	as := mem.NewAS(4096)
	if _, err := as.Map(mem.MapArgs{Base: 0, Len: 16 * 4096, Prot: mem.ProtRW, Fixed: true}); err != nil {
		t.Fatal(err)
	}
	shm := mem.NewAnon("shm", 4096)
	if _, err := as.Map(mem.MapArgs{Base: 0x108000, Len: 4096, Prot: mem.ProtRW, Shared: true, Obj: shm, Fixed: true}); err != nil {
		t.Fatal(err)
	}
	c := &CPU{AS: as}
	if _, tr := c.load32(0x1000); tr != nil {
		t.Fatalf("load: %+v", tr)
	}
	if e := c.tlb.ents[0]; e.tag != tlbNoTag || e.frame != nil {
		t.Fatalf("slot 0 of a fresh TLB survived the first reset: tag %#x", e.tag)
	}
	if n := occupied(t, c); n != 1 {
		t.Fatalf("%d slots occupied after one fill, want 1", n)
	}
	for pg := uint32(0); pg < 8; pg++ {
		c.load32(pg * 4096)
	}
	c.load32(0x108000) // a shared page: a negative entry in slot 8
	if e := c.tlb.ents[8]; e.tag != 0x108000 || e.prot != 0 {
		t.Fatalf("slot 8 = tag %#x prot %v, want a negative entry for 0x108000", e.tag, e.prot)
	}
	if n := occupied(t, c); n != 9 {
		t.Fatalf("%d slots occupied after 8 page fills and a negative fill, want 9", n)
	}

	// A fresh-page store moves the generation: the next access drops all
	// nine entries and refills one.
	if tr := c.store32(0x3000, 1); tr != nil {
		t.Fatalf("store: %+v", tr)
	}
	c.load32(0x5000)
	if n := occupied(t, c); n != 1 {
		t.Fatalf("%d slots occupied after a reset and one fill, want 1", n)
	}
	if e := c.tlb.ents[5]; e.tag != 0x5000 {
		t.Fatalf("slot 5 tag %#x, want 0x5000", e.tag)
	}

	c.FlushTLB()
	c.load32(0x2000)
	if n := occupied(t, c); n != 1 || c.tlb.ents[0].tag != tlbNoTag {
		t.Fatal("a flushed TLB was not cleared whole on its next reset")
	}
}

// TestCheckTLBCatchesUnmaskedSlot pins that CheckTLB reports a filled slot
// the occupancy mask does not cover — the state a reset would miss — even
// after the generation has moved on.
func TestCheckTLBCatchesUnmaskedSlot(t *testing.T) {
	as := mem.NewAS(4096)
	if _, err := as.Map(mem.MapArgs{Base: 0x10000, Len: 4096, Prot: mem.ProtRW, Fixed: true}); err != nil {
		t.Fatal(err)
	}
	c := &CPU{AS: as}
	c.load32(0x10000)
	c.tlb.used = 0
	if err := c.CheckTLB(); err == nil || !strings.Contains(err.Error(), "occupancy mask") {
		t.Fatalf("CheckTLB = %v, want an occupancy-mask violation", err)
	}
	if err := as.Mprotect(0x10000, 4096, mem.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTLB(); err == nil {
		t.Fatal("CheckTLB passed an unmasked slot at a stale generation")
	}
}

// CheckTLB holds object-backed entries and the fetch window to the frame
// PageFrame returns under the current key. A writer that moves an exposed
// object's bytes without bumping the epoch leaves both aliasing the old
// storage, and CheckTLB says so; once the epoch moves, the cache is under
// an old key, which is legal, and the next fetch refills it from the new
// bytes.
func TestCheckTLBCatchesUnannouncedObjectChange(t *testing.T) {
	text := make([]byte, 4096)
	for i, w := range spinWords(3) {
		binary.BigEndian.PutUint32(text[4*i:], w)
	}
	obj := &mem.ByteObject{Name: "text", Data: text}
	as := mem.NewAS(4096)
	if _, err := as.Map(mem.MapArgs{Base: 0x1000, Len: 4096, Prot: mem.ProtRX, Obj: obj, Fixed: true}); err != nil {
		t.Fatal(err)
	}
	c := &CPU{AS: as}
	c.Regs.PC = 0x1000
	stepOK(t, c)
	stepOK(t, c)
	if c.tlb.win.frame == nil {
		t.Fatal("no fetch window over the object's text")
	}
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}
	obj.Data = append([]byte(nil), text...)
	if err := c.CheckTLB(); err == nil || !strings.Contains(err.Error(), "wrong frame") {
		t.Fatalf("CheckTLB = %v after an unannounced change, want a wrong-frame violation", err)
	}
	mem.BumpEpoch()
	if err := c.CheckTLB(); err != nil {
		t.Fatalf("CheckTLB under an old epoch: %v", err)
	}
	stepOK(t, c)
	if err := c.CheckTLB(); err != nil {
		t.Fatalf("CheckTLB after the refill: %v", err)
	}
	if &c.tlb.win.frame[0] != &obj.Data[0] {
		t.Fatal("the refilled window does not alias the object's new bytes")
	}
}
