package vcpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/types"
)

// PSW flag bits.
const (
	FlagZ     = 1 << 0 // zero
	FlagN     = 1 << 1 // negative
	FlagC     = 1 << 2 // carry / borrow (unsigned)
	FlagV     = 1 << 3 // signed overflow
	FlagTrace = 1 << 8 // trace bit: FLTTRACE after each instruction
)

// NumRegs is the number of general registers.
const NumRegs = 8

// Regs is the general-register context of a thread of control, transferred
// by the PIOCGREG and PIOCSREG operations.
type Regs struct {
	R   [NumRegs]uint32 // general registers
	PC  uint32          // program counter
	SP  uint32          // stack pointer
	PSW uint32          // processor status word
}

// String renders the register set for debuggers.
func (r Regs) String() string {
	s := ""
	for i, v := range r.R {
		s += fmt.Sprintf("r%d=%#x ", i, v)
	}
	return s + fmt.Sprintf("pc=%#x sp=%#x psw=%#x", r.PC, r.SP, r.PSW)
}

// FPRegs is the floating-point register context, transferred by the
// PIOCGFPREG and PIOCSFPREG operations.
type FPRegs struct {
	F [NumRegs]float64
}

// TrapKind classifies the outcome of executing one instruction.
type TrapKind int

// Trap kinds.
const (
	TrapNone    TrapKind = iota // instruction completed; continue
	TrapSyscall                 // SYSCALL executed; PC advanced past it
	TrapFault                   // machine fault; PC at the faulting instruction
)

// Trap reports a kernel entry caused by instruction execution.
type Trap struct {
	Kind  TrapKind
	Fault int    // types.FLT* when Kind == TrapFault
	Addr  uint32 // faulting address (data address for access faults, else PC)
}

// CPU executes instructions against an address space. It is the
// machine-dependent register context of one thread of control (LWP).
type CPU struct {
	Regs    Regs
	FP      FPRegs
	AS      *mem.AS
	Instret uint64 // instructions retired (for resource usage reporting)

	// NoTLB disables the translation fast path: every access takes the
	// full segment-walk slow path. The reference interpreter for
	// differential testing.
	NoTLB bool

	tlb   tlb     // software TLB and fetch window (tlb.go)
	stage [4]byte // slow-path staging buffer; reused to avoid per-access allocation
}

// fault builds a fault trap.
func fault(flt int, addr uint32) Trap {
	return Trap{Kind: TrapFault, Fault: flt, Addr: addr}
}

// memFault converts an address-space access error into a trap.
func memFault(err error, fallback uint32) Trap {
	if ae, ok := err.(*mem.AccessError); ok {
		return fault(ae.Fault, ae.Addr)
	}
	return fault(types.FLTACCESS, fallback)
}

// The memory pipeline. Each accessor tries the TLB hit path first — a
// direct frame access with no segment walk, no staging buffer and no
// allocation — and falls back to the combined AccessRead/AccessWrite slow
// path, which performs the permission check, watchpoint check, automatic
// stack growth, copy-on-write and the copy in a single segment walk.
// Word accesses are 4-aligned and the page size is a multiple of 4, so an
// aligned word never crosses a page; byte accesses are single-byte. A TLB
// hit therefore always lies entirely inside its frame.

func (c *CPU) load32(addr uint32) (uint32, *Trap) {
	if addr%4 != 0 {
		t := fault(types.FLTBOUNDS, addr)
		return 0, &t
	}
	if f := c.tlbFrame(addr, mem.ProtRead, false); f != nil {
		off := addr & c.tlb.mask
		return binary.BigEndian.Uint32(f[off : off+4]), nil
	}
	if err := c.AS.AccessRead(addr, c.stage[:4]); err != nil {
		t := memFault(err, addr)
		return 0, &t
	}
	return binary.BigEndian.Uint32(c.stage[:4]), nil
}

func (c *CPU) store32(addr, v uint32) *Trap {
	if addr%4 != 0 {
		t := fault(types.FLTBOUNDS, addr)
		return &t
	}
	if f := c.tlbFrame(addr, mem.ProtWrite, true); f != nil {
		off := addr & c.tlb.mask
		binary.BigEndian.PutUint32(f[off:off+4], v)
		return nil
	}
	binary.BigEndian.PutUint32(c.stage[:4], v)
	if err := c.AS.AccessWrite(addr, c.stage[:4]); err != nil {
		t := memFault(err, addr)
		return &t
	}
	return nil
}

func (c *CPU) load8(addr uint32) (byte, *Trap) {
	if f := c.tlbFrame(addr, mem.ProtRead, false); f != nil {
		return f[addr&c.tlb.mask], nil
	}
	if err := c.AS.AccessRead(addr, c.stage[:1]); err != nil {
		t := memFault(err, addr)
		return 0, &t
	}
	return c.stage[0], nil
}

func (c *CPU) store8(addr uint32, v byte) *Trap {
	if f := c.tlbFrame(addr, mem.ProtWrite, true); f != nil {
		f[addr&c.tlb.mask] = v
		return nil
	}
	c.stage[0] = v
	if err := c.AS.AccessWrite(addr, c.stage[:1]); err != nil {
		t := memFault(err, addr)
		return &t
	}
	return nil
}

// fetch32 reads the instruction word at a pc outside the fetch window
// (execute permission): an exec hit in the TLB refills the window, and
// anything else takes the slow path. Step serves a pc inside the window
// itself, while the TLB's key holds, without a call.
func (c *CPU) fetch32(pc uint32) (uint32, *Trap) {
	if f := c.tlbFrame(pc, mem.ProtExec, false); f != nil {
		c.tlb.fillWindow(pc)
		off := pc & c.tlb.mask
		return binary.BigEndian.Uint32(f[off : off+4]), nil
	}
	if err := c.AS.AccessFetch(pc, c.stage[:4]); err != nil {
		t := memFault(err, pc)
		return 0, &t
	}
	return binary.BigEndian.Uint32(c.stage[:4]), nil
}

// Push pushes a word onto the user stack (used by the kernel to build signal
// frames as well as by PUSH/CALL).
func (c *CPU) Push(v uint32) *Trap {
	sp := c.Regs.SP - 4
	if t := c.store32(sp, v); t != nil {
		if t.Fault == types.FLTBOUNDS {
			t.Fault = types.FLTSTACK
		}
		return t
	}
	c.Regs.SP = sp
	return nil
}

// Pop pops a word from the user stack.
func (c *CPU) Pop() (uint32, *Trap) {
	v, t := c.load32(c.Regs.SP)
	if t != nil {
		return 0, t
	}
	c.Regs.SP += 4
	return v, nil
}

// setFlagsArith sets Z/N/C/V from an arithmetic result.
func (c *CPU) setFlagsArith(res uint32, carry, overflow bool) {
	psw := c.Regs.PSW &^ uint32(FlagZ|FlagN|FlagC|FlagV)
	if res == 0 {
		psw |= FlagZ
	}
	if res&0x80000000 != 0 {
		psw |= FlagN
	}
	if carry {
		psw |= FlagC
	}
	if overflow {
		psw |= FlagV
	}
	c.Regs.PSW = psw
}

func (c *CPU) flag(f uint32) bool { return c.Regs.PSW&f != 0 }

// condTaken evaluates a conditional jump against the flags (signed compares).
func (c *CPU) condTaken(op int) bool {
	z, n, v := c.flag(FlagZ), c.flag(FlagN), c.flag(FlagV)
	switch op {
	case OpJE:
		return z
	case OpJNE:
		return !z
	case OpJLT:
		return n != v
	case OpJGE:
		return n == v
	case OpJGT:
		return !z && n == v
	case OpJLE:
		return z || n != v
	}
	return false
}

// Run executes instructions until one traps, n have run, or *intr reads
// non-zero after an instruction, and returns the trap (TrapNone for the
// other two stops) with the number of instructions executed. The trapping
// instruction counts, as a Step call would, and at least one instruction
// always runs. intr is read after every instruction, so a caller that
// gated on it before the call sees a raise within one instruction.
func (c *CPU) Run(n int, intr *atomic.Int32) (Trap, int) {
	for i := 1; ; i++ {
		if tr := c.Step(); tr.Kind != TrapNone || i >= n || intr.Load() != 0 {
			return tr, i
		}
	}
}

// Step executes one instruction. On TrapFault the program counter is left at
// the faulting instruction (so the debugger can repair and re-execute); the
// one exception is FLTTRACE, which is reported after the instruction
// completes. On TrapSyscall the PC has advanced past the SYSCALL instruction.
func (c *CPU) Step() Trap {
	pc := c.Regs.PC
	if pc%4 != 0 {
		return fault(types.FLTBOUNDS, pc)
	}
	var w uint32
	if t, off := &c.tlb, pc-c.tlb.win.base; off < uint32(len(t.win.frame)) && t.current(c.AS) {
		w = binary.BigEndian.Uint32(t.win.frame[off : off+4])
	} else {
		var ft *Trap
		if w, ft = c.fetch32(pc); ft != nil {
			return *ft
		}
	}
	op, ra, rb, imm := Decode(w)
	// The register fields are 4 bits wide but the machine has NumRegs
	// registers; encodings naming nonexistent registers are illegal
	// instructions, like any other malformed word.
	if ra >= NumRegs || rb >= NumRegs {
		return fault(types.FLTILL, pc)
	}
	simm := int32(int16(imm))
	npc := pc + InstrSize
	r := &c.Regs.R

	switch op {
	case OpNOP:
	case OpMOVI:
		r[ra] = uint32(imm)
	case OpMOVHI:
		r[ra] = uint32(imm)<<16 | r[ra]&0xFFFF
	case OpMOV:
		r[ra] = r[rb]
	case OpADD, OpADDI, OpSUB:
		a := r[ra]
		var b uint32
		if op == OpADDI {
			b = uint32(simm)
		} else {
			b = r[rb]
		}
		var res uint32
		var carry, ovf bool
		if op == OpSUB {
			res = a - b
			carry = a < b
			ovf = (a^b)&0x80000000 != 0 && (a^res)&0x80000000 != 0
		} else {
			res = a + b
			carry = res < a
			ovf = (a^b)&0x80000000 == 0 && (a^res)&0x80000000 != 0
		}
		r[ra] = res
		c.setFlagsArith(res, carry, ovf)
	case OpMUL:
		prod := int64(int32(r[ra])) * int64(int32(r[rb]))
		if prod > math.MaxInt32 || prod < math.MinInt32 {
			return fault(types.FLTIOVF, pc)
		}
		r[ra] = uint32(int32(prod))
		c.setFlagsArith(r[ra], false, false)
	case OpDIV, OpMOD:
		d := int32(r[rb])
		if d == 0 {
			return fault(types.FLTIZDIV, pc)
		}
		n := int32(r[ra])
		if n == math.MinInt32 && d == -1 {
			return fault(types.FLTIOVF, pc)
		}
		if op == OpDIV {
			r[ra] = uint32(n / d)
		} else {
			r[ra] = uint32(n % d)
		}
		c.setFlagsArith(r[ra], false, false)
	case OpAND:
		r[ra] &= r[rb]
		c.setFlagsArith(r[ra], false, false)
	case OpOR:
		r[ra] |= r[rb]
		c.setFlagsArith(r[ra], false, false)
	case OpXOR:
		r[ra] ^= r[rb]
		c.setFlagsArith(r[ra], false, false)
	case OpSHL:
		r[ra] <<= uint(imm) & 31
		c.setFlagsArith(r[ra], false, false)
	case OpSHR:
		r[ra] >>= uint(imm) & 31
		c.setFlagsArith(r[ra], false, false)
	case OpNOT:
		r[ra] = ^r[ra]
		c.setFlagsArith(r[ra], false, false)
	case OpLD:
		v, t := c.load32(r[rb] + uint32(simm))
		if t != nil {
			return *t
		}
		r[ra] = v
	case OpST:
		if t := c.store32(r[rb]+uint32(simm), r[ra]); t != nil {
			return *t
		}
	case OpLDB:
		v, t := c.load8(r[rb] + uint32(simm))
		if t != nil {
			return *t
		}
		r[ra] = uint32(v)
	case OpSTB:
		if t := c.store8(r[rb]+uint32(simm), byte(r[ra])); t != nil {
			return *t
		}
	case OpCMP, OpCMPI:
		a := r[ra]
		var b uint32
		if op == OpCMPI {
			b = uint32(simm)
		} else {
			b = r[rb]
		}
		res := a - b
		c.setFlagsArith(res, a < b, (a^b)&0x80000000 != 0 && (a^res)&0x80000000 != 0)
	case OpJMP:
		npc = uint32(int64(pc) + InstrSize + int64(simm))
	case OpJE, OpJNE, OpJLT, OpJGE, OpJGT, OpJLE:
		if c.condTaken(op) {
			npc = uint32(int64(pc) + InstrSize + int64(simm))
		}
	case OpJR:
		npc = r[rb]
	case OpCALL:
		if t := c.Push(npc); t != nil {
			return *t
		}
		npc = uint32(int64(pc) + InstrSize + int64(simm))
	case OpCALLR:
		if t := c.Push(npc); t != nil {
			return *t
		}
		npc = r[rb]
	case OpRET:
		v, t := c.Pop()
		if t != nil {
			return *t
		}
		npc = v
	case OpPUSH:
		if t := c.Push(r[ra]); t != nil {
			return *t
		}
	case OpPOP:
		v, t := c.Pop()
		if t != nil {
			return *t
		}
		r[ra] = v
	case OpSYSCALL:
		c.Regs.PC = npc
		c.Instret++
		return Trap{Kind: TrapSyscall}
	case OpBPT:
		// PC stays at the breakpoint address itself.
		return fault(types.FLTBPT, pc)
	case OpHLT:
		return fault(types.FLTPRIV, pc)
	case OpFMOVI:
		c.FP.F[ra] = float64(simm)
	case OpFADD:
		c.FP.F[ra] += c.FP.F[rb]
	case OpFMUL:
		c.FP.F[ra] *= c.FP.F[rb]
	case OpFDIV:
		if c.FP.F[rb] == 0 {
			return fault(types.FLTFPE, pc)
		}
		c.FP.F[ra] /= c.FP.F[rb]
	case OpMOVSPR:
		r[ra] = c.Regs.SP
	case OpMOVRSP:
		c.Regs.SP = r[ra]
	case OpSHLR:
		r[ra] <<= r[rb] & 31
		c.setFlagsArith(r[ra], false, false)
	case OpSHRR:
		r[ra] >>= r[rb] & 31
		c.setFlagsArith(r[ra], false, false)
	default:
		return fault(types.FLTILL, pc)
	}

	c.Regs.PC = npc
	c.Instret++
	if c.Regs.PSW&FlagTrace != 0 {
		return fault(types.FLTTRACE, c.Regs.PC)
	}
	return Trap{}
}
