package kernel

import (
	"bytes"
	"fmt"

	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Core dumps. When a signal's default disposition is DispCore, the dying
// process leaves an image of its address space and registers in a file named
// core.<pid> in its working directory — the "possibly with a core dump" of
// the paper's psig() description. The format is a simple segment dump that
// debuggers (and tests) can parse with ParseCore.

// CoreMagic identifies a core file.
var CoreMagic = [4]byte{'C', 'O', 'R', 'E'}

// CoreImage is a parsed core file.
type CoreImage struct {
	Pid    int
	Signal int
	Regs   [11]uint32 // R0..R7, PC, SP, PSW
	Segs   []CoreSeg
}

// CoreSeg is one dumped mapping.
type CoreSeg struct {
	Vaddr uint32
	Data  []byte
}

// writeCore dumps the process image. Failures are ignored — a core dump is
// best-effort, as it always was.
func (k *Kernel) writeCore(p *Proc, sig int) {
	l := p.Rep()
	if l == nil || p.AS == nil {
		return
	}
	w := wire.Cursor{B: append([]byte(nil), CoreMagic[:]...)}
	w.PutU32(uint32(p.Pid))
	w.PutU32(uint32(sig))
	regs := l.CPU.Regs
	for _, v := range regs.R {
		w.PutU32(v)
	}
	w.PutU32(regs.PC)
	w.PutU32(regs.SP)
	w.PutU32(regs.PSW)
	segs := p.AS.SegsView()
	w.PutU32(uint32(len(segs)))
	for _, s := range segs {
		w.PutU32(s.Base)
		w.PutU32(s.Len)
		at := len(w.B)
		w.B = append(w.B, make([]byte, s.Len)...)
		p.AS.ReadAt(w.B[at:], int64(s.Base))
	}
	out := w.B
	name := fmt.Sprintf("core.%d", p.Pid)
	dir := p.CWD
	if dir == "" {
		dir = "/tmp"
	}
	dw, base, err := k.NS.LookupDir(vfs.Clean(dir+"/"+name), p.Cred)
	if err != nil {
		return
	}
	vn, err := dw.VLookup(base, types.RootCred())
	if err == vfs.ErrNotExist {
		vn, err = dw.VCreate(base, 0o600, p.Cred)
	}
	if err != nil {
		return
	}
	h, err := vn.VOpen(vfs.OWrite, p.Cred)
	if err != nil {
		return
	}
	defer h.HClose()
	h.HWrite(out, 0)
	k.tracef("pid %d dumped core (%d bytes)", p.Pid, len(out))
}

// ParseCore parses a core file.
func ParseCore(b []byte) (*CoreImage, error) {
	if len(b) < 4 || [4]byte(b) != CoreMagic {
		return nil, fmt.Errorf("kernel: not a core file")
	}
	r := wire.Cursor{B: b, Off: 4}
	img := &CoreImage{Pid: int(r.U32()), Signal: int(r.U32())}
	for i := range img.Regs {
		img.Regs[i] = r.U32()
	}
	// A segment is at least its address and length words.
	n := r.Count(8)
	if n > 1024 {
		return nil, fmt.Errorf("kernel: unreasonable core segment count")
	}
	for i := 0; i < n; i++ {
		base := r.U32()
		data := bytes.Clone(r.Next(int(r.U32())))
		if r.Err != nil {
			break
		}
		img.Segs = append(img.Segs, CoreSeg{Vaddr: base, Data: data})
	}
	if r.Err != nil {
		return nil, fmt.Errorf("kernel: core file: %w", r.Err)
	}
	return img, nil
}

// At returns the byte at a virtual address in the core image.
func (c *CoreImage) At(addr uint32) (byte, bool) {
	for _, s := range c.Segs {
		if addr >= s.Vaddr && addr < s.Vaddr+uint32(len(s.Data)) {
			return s.Data[addr-s.Vaddr], true
		}
	}
	return 0, false
}
