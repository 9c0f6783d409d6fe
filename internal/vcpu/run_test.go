package vcpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/types"
)

func nops(n int, tail ...uint32) []uint32 {
	w := make([]uint32, n, n+len(tail))
	for i := range w {
		w[i] = Encode(OpNOP, 0, 0, 0)
	}
	return append(w, tail...)
}

// spinWords is n NOPs and a jump back to the first.
func spinWords(n int) []uint32 {
	return nops(n, Encode(OpJMP, 0, 0, simm(int16(-4*(n+1)))))
}

func TestRunBudget(t *testing.T) {
	c := newCPU(t, spinWords(3)...)
	var intr atomic.Int32
	tr, n := c.Run(10, &intr)
	if tr.Kind != TrapNone || n != 10 || c.Instret != 10 {
		t.Fatalf("Run(10) = %+v, %d with Instret %d; want TrapNone, 10, 10", tr, n, c.Instret)
	}
	if c.Regs.PC != 0x1000+4*2 { // 10 = 4+4+2
		t.Fatalf("pc = %#x after 10 instructions", c.Regs.PC)
	}
}

// A trap at instruction k returns (trap, k) and leaves the CPU where k Step
// calls leave it, for faults (the trapping instruction does not retire) and
// system calls (it does) alike.
func TestRunTrapMatchesSteps(t *testing.T) {
	for _, last := range []uint32{Encode(OpBPT, 0, 0, 0), Encode(OpSYSCALL, 0, 0, 0), Encode(OpDIV, 1, 2, 0)} {
		words := nops(6, last)
		c, ref := newCPU(t, words...), newCPU(t, words...)
		var intr atomic.Int32
		tr, n := c.Run(50, &intr)
		var want Trap
		for range n {
			want = ref.Step()
		}
		if tr.Kind == TrapNone || n != 7 || tr != want {
			t.Fatalf("%#x: Run = %+v, %d; want the 7th instruction's trap %+v", last, tr, n, want)
		}
		if c.Regs != ref.Regs || c.Instret != ref.Instret {
			t.Fatalf("%#x: after Run pc=%#x instret=%d, after 7 Steps pc=%#x instret=%d",
				last, c.Regs.PC, c.Instret, ref.Regs.PC, ref.Instret)
		}
	}
}

func TestRunStopsOnIntr(t *testing.T) {
	c := newCPU(t, spinWords(3)...)
	var intr atomic.Int32
	intr.Store(1)
	if tr, n := c.Run(50, &intr); tr.Kind != TrapNone || n != 1 || c.Instret != 1 {
		t.Fatalf("Run with intr raised = %+v, %d (Instret %d); want exactly one instruction", tr, n, c.Instret)
	}
}

func TestRunTraceBit(t *testing.T) {
	c := newCPU(t, spinWords(3)...)
	c.Regs.PSW |= FlagTrace
	var intr atomic.Int32
	tr, n := c.Run(50, &intr)
	if tr.Kind != TrapFault || tr.Fault != types.FLTTRACE || n != 1 || c.Regs.PC != 0x1004 {
		t.Fatalf("Run with the trace bit = %+v, %d at pc %#x; want FLTTRACE after one instruction", tr, n, c.Regs.PC)
	}
}

// The fetch window is refilled from the TLB and dropped by every reset: a
// store that moves the generation, then a load that re-keys the TLB, must
// leave no window, and FlushTLB leaves none either.
func TestFetchWindowFollowsTLBKey(t *testing.T) {
	c := newCPU(t, spinWords(3)...)
	stepOK(t, c)
	if c.tlb.win.base != 0x1000 || c.tlb.win.frame == nil {
		t.Fatalf("no fetch window after a fetch: %+v", c.tlb.win)
	}
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}
	if tr := c.store32(0x8000, 1); tr != nil { // a fresh page: the generation moves
		t.Fatalf("store: %+v", tr)
	}
	if _, tr := c.load32(0x8000); tr != nil {
		t.Fatalf("load: %+v", tr)
	}
	if c.tlb.win.frame != nil {
		t.Fatal("the fetch window survived a TLB reset")
	}
	stepOK(t, c)
	c.FlushTLB()
	if c.tlb.win.frame != nil {
		t.Fatal("the fetch window survived FlushTLB")
	}
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}
}

// The window caches a translation, not data: a write to an already private
// text page, through the address space as a debugger's as-file write does,
// is fetched at once. A watchpoint on the page moves the generation, and
// the page, which PageFrame now refuses, is no longer in a window.
func TestFetchWindowSeesTextWrites(t *testing.T) {
	c := newCPU(t, spinWords(3)...)
	var intr atomic.Int32
	c.Run(8, &intr)
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], Encode(OpBPT, 0, 0, 0))
	if _, err := c.AS.WriteAt(w[:], 0x1008); err != nil {
		t.Fatal(err)
	}
	tr, _ := c.Run(50, &intr)
	if tr.Fault != types.FLTBPT || c.Regs.PC != 0x1008 {
		t.Fatalf("Run = %+v at pc %#x; want FLTBPT at the planted 0x1008", tr, c.Regs.PC)
	}
	c.Regs.PC = 0x1000
	c.AS.SetWatch(0x1ffc, 4, mem.ProtRead)
	if tr, n := c.Run(2, &intr); tr.Kind != TrapNone || n != 2 {
		t.Fatalf("Run(2) = %+v, %d under a watchpoint", tr, n)
	}
	if c.tlb.win.frame != nil {
		t.Fatal("a watched text page is served from the fetch window")
	}
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}
}

// A store into object-backed text privatizes the page and moves the
// generation; the very next fetches must come from the private copy, so
// the instruction the store planted two words ahead runs.
func TestFetchWindowSeesCOWText(t *testing.T) {
	words := []uint32{
		Encode(OpST, 1, 4, 8), // plant r1 at 0x1008
		Encode(OpNOP, 0, 0, 0),
		Encode(OpNOP, 0, 0, 0),
		Encode(OpJMP, 0, 0, simm(-16)),
	}
	img := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(img[4*i:], w)
	}
	as := mem.NewAS(4096)
	obj := &mem.ByteObject{Name: "text", Data: img}
	if _, err := as.Map(mem.MapArgs{Base: 0x1000, Len: 4096, Prot: mem.ProtRWX, MaxProt: mem.ProtRWX, Obj: obj, Fixed: true}); err != nil {
		t.Fatal(err)
	}
	c := &CPU{AS: as}
	c.Regs.PC = 0x1000
	c.Regs.R[1], c.Regs.R[4] = Encode(OpBPT, 0, 0, 0), 0x1000
	var intr atomic.Int32
	tr, n := c.Run(50, &intr)
	if tr.Fault != types.FLTBPT || n != 3 || c.Regs.PC != 0x1008 {
		t.Fatalf("Run = %+v, %d at pc %#x; want FLTBPT at 0x1008 on the third instruction", tr, n, c.Regs.PC)
	}
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}
}

// randomLoop builds a seeded random program: a 64-instruction loop body
// and a jump back to its start. r0-r3 are scratch; r4-r7 are never written
// and hold the bases of the loads and stores, two of them in the text page
// itself, so the loop rewrites its own code and then runs it. One word in
// sixteen is fully random (illegal encodings, syscalls, breakpoints, wild
// jumps), and every fault is skipped over by the caller.
func randomLoop(rng *rand.Rand, text, data uint32) ([]byte, Regs) {
	scratch := func() int { return rng.Intn(4) }
	alu := []int{OpMOVI, OpMOVHI, OpMOV, OpADD, OpADDI, OpSUB, OpMUL, OpDIV, OpMOD,
		OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpNOT, OpCMP, OpCMPI, OpSHLR, OpSHRR, OpNOP}
	ldst := []int{OpLD, OpST, OpLDB, OpSTB}
	const body = 64
	img := make([]byte, 4096)
	for i := 0; i < body; i++ {
		var w uint32
		switch r := rng.Intn(16); {
		case r == 0:
			w = rng.Uint32()
		case r < 6:
			op := ldst[rng.Intn(len(ldst))]
			off := uint16(rng.Intn(0x100)) &^ 3
			if op == OpLDB || op == OpSTB {
				off |= uint16(rng.Intn(4))
			}
			w = Encode(op, scratch(), 4+rng.Intn(4), off)
		case r < 8:
			w = Encode(OpJE+rng.Intn(OpJLE-OpJE+1), 0, 0, uint16(4*rng.Intn(8)))
		default:
			w = Encode(alu[rng.Intn(len(alu))], scratch(), scratch(), uint16(rng.Uint32()))
		}
		binary.BigEndian.PutUint32(img[4*i:], w)
	}
	binary.BigEndian.PutUint32(img[4*body:], Encode(OpJMP, 0, 0, simm(int16(-4*(body+1)))))
	var regs Regs
	regs.R[4], regs.R[5] = text, text+0x80
	regs.R[6], regs.R[7] = data, data+0x1000
	regs.PC, regs.SP = text, data+0x2000
	return img, regs
}

// TestRunDifferential runs seeded random programs two ways: Run(50) on the
// full fast path (fetch window and TLB) against a Step loop on the NoTLB
// reference interpreter. Every stop must agree on the trap, the count, the
// registers, Instret and every mapped byte. Odd trials map the text from an
// object (an object-backed window until the first store privatizes the
// page); even trials write it into an anonymous mapping (a private frame
// from the start, which the window must alias).
func TestRunDifferential(t *testing.T) {
	const (
		text = 0x1000
		data = 0x2000
		end  = 0x4000
	)
	rng := rand.New(rand.NewSource(2301))
	rewrote := 0
	for trial := 0; trial < 60; trial++ {
		img, regs := randomLoop(rng, text, data)
		build := func(noTLB bool) *CPU {
			as := mem.NewAS(4096)
			tm := mem.MapArgs{Base: text, Len: 4096, Prot: mem.ProtRWX, MaxProt: mem.ProtRWX, Fixed: true}
			if trial%2 == 1 {
				tm.Obj = &mem.ByteObject{Name: "text", Data: img}
			}
			if _, err := as.Map(tm); err != nil {
				t.Fatal(err)
			}
			if _, err := as.Map(mem.MapArgs{Base: data, Len: end - data, Prot: mem.ProtRW, Fixed: true}); err != nil {
				t.Fatal(err)
			}
			if trial%2 == 0 {
				if _, err := as.WriteAt(img, text); err != nil {
					t.Fatal(err)
				}
			}
			return &CPU{AS: as, Regs: regs, NoTLB: noTLB}
		}
		fast, ref := build(false), build(true)
		var intr atomic.Int32
		a, b := make([]byte, end-text), make([]byte, end-text)
		for stop := 0; stop < 100; stop++ {
			tr, n := fast.Run(50, &intr)
			var want Trap
			m := 0
			for m < 50 {
				want = ref.Step()
				m++
				if want.Kind != TrapNone {
					break
				}
			}
			where := fmt.Sprintf("trial %d stop %d", trial, stop)
			if tr != want || n != m {
				t.Fatalf("%s: Run = %+v after %d, Step loop = %+v after %d", where, tr, n, want, m)
			}
			if fast.Regs != ref.Regs || fast.Instret != ref.Instret {
				t.Fatalf("%s: registers diverge:\nfast %v instret %d\nref  %v instret %d",
					where, fast.Regs, fast.Instret, ref.Regs, ref.Instret)
			}
			fast.AS.ReadAt(a, text)
			ref.AS.ReadAt(b, text)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: memory diverges", where)
			}
			if err := fast.CheckTLB(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if tr.Kind == TrapFault {
				// Skip the faulting instruction on both, or restart a PC
				// that left the text.
				pc := fast.Regs.PC&^3 + 4
				if pc < text || pc >= data {
					pc = text
				}
				fast.Regs.PC, ref.Regs.PC = pc, pc
			}
		}
		if !bytes.Equal(a[:len(img)], img) {
			rewrote++
		}
	}
	if rewrote < 30 {
		t.Fatalf("only %d of 60 programs rewrote their text; the window's aliasing went untested", rewrote)
	}
}

// ReleaseTLB gives the entry array back empty and drops the fetch window,
// keeping the key; the next fill takes an empty array, and the translation
// it serves is unchanged. CheckTLB refuses a window left in a released TLB.
func TestReleaseTLB(t *testing.T) {
	c := newCPU(t, spinWords(3)...)
	stepOK(t, c)
	if c.tlb.ents == nil || c.tlb.win.frame == nil {
		t.Fatal("no entry array or fetch window after a fetch")
	}
	ents, as, gen := c.tlb.ents, c.tlb.as, c.tlb.gen
	c.ReleaseTLB()
	if c.tlb.ents != nil || c.tlb.win.frame != nil || c.tlb.used != 0 {
		t.Fatalf("after release: ents=%p window=%+v used=%#x, want none", c.tlb.ents, c.tlb.win, c.tlb.used)
	}
	if c.tlb.as != as || c.tlb.gen != gen {
		t.Fatal("release dropped the TLB's key")
	}
	for i, e := range ents {
		if e.tag != tlbNoTag || e.frame != nil || e.obj != nil {
			t.Fatalf("released array slot %d still holds %#x", i, e.tag)
		}
	}
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}
	stepOK(t, c)
	if c.tlb.ents == nil || c.tlb.win.base != 0x1000 {
		t.Fatalf("no array or window after the next fetch: %+v", c.tlb.win)
	}
	if err := c.CheckTLB(); err != nil {
		t.Fatal(err)
	}

	win := c.tlb.win
	c.ReleaseTLB()
	c.tlb.win = win
	if err := c.CheckTLB(); err == nil {
		t.Fatal("CheckTLB accepted a fetch window in a released TLB")
	}
}
