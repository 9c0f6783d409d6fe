package kernel

import (
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/xout"
)

func sysExec(k *Kernel, l *LWP) sysResult {
	path, e := k.copyinStr(l, l.sysArgs[0])
	if e != 0 {
		return rerr(e)
	}
	return k.execProc(l, path, nil)
}

// Exec loads a new image into an existing process from Go-level code (used
// by Spawn). args become the ps-visible argument list.
func (k *Kernel) Exec(p *Proc, path string, args []string) error {
	l := p.Rep()
	if l == nil {
		return ErrNoProcess
	}
	res := k.execProc(l, path, args)
	if res.Err != 0 {
		return res.Err
	}
	return nil
}

// execProc implements exec(2): overlay the process with a new program. Per
// the paper, exec interacts with /proc in two ways: tracing flags survive an
// ordinary exec, and a set-id exec is honored while invalidating the /proc
// file descriptors held by controlling processes — the traced process is
// directed to stop and its run-on-last-close flag is set, so a controlling
// process with appropriate privilege can reopen the /proc file to retain
// control, while just closing the invalid descriptor sets it running.
func (k *Kernel) execProc(l *LWP, path string, args []string) sysResult {
	p := l.Proc
	abs := vfs.Clean(p.absPath(path))
	vn, err := k.NS.Lookup(abs, p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	attr, err := vn.VAttr()
	if err != nil {
		return rerr(mapErr(err))
	}
	if attr.Type != vfs.VREG {
		return rerr(EACCES)
	}
	if err := vfs.CheckAccess(attr, p.Cred, 1); err != nil {
		return rerr(EACCES)
	}
	img, errno := k.loadImage(vn)
	if errno != 0 {
		return rerr(errno)
	}

	// Build the new address space first: a failed exec must leave the old
	// image — and the process's credentials and /proc descriptors — exactly
	// as they were. (Honoring set-id bits before this point would leak a
	// credential change out of an exec that then failed with ENOMEM.)
	newAS, entry, errno := k.buildAS(vn, abs, img, p.Pid)
	if errno != 0 {
		return rerr(errno)
	}

	// The exec is committed. Honor set-id bits.
	setid := false
	if attr.Mode&vfs.ModeSetUID != 0 && p.Cred.EUID != attr.UID {
		p.Cred.EUID = attr.UID
		p.Cred.SUID = attr.UID
		setid = true
	}
	if attr.Mode&vfs.ModeSetGID != 0 && p.Cred.EGID != attr.GID {
		p.Cred.EGID = attr.GID
		p.Cred.SGID = attr.GID
		setid = true
	}
	if setid {
		p.SugidDirty = true
		if p.Trace.Writers > 0 {
			// Invalidate controlling /proc descriptors, direct the process
			// to stop, and set run-on-last-close.
			p.Trace.Gen++
			p.Trace.Writers = 0
			p.Trace.Excl = false
			p.Trace.RunLC = true
			l.dstop = true
			p.noteIntr()
			k.tracef("pid %d set-id exec: /proc descriptors invalidated", p.Pid)
		}
	}

	// exec single-threads the process.
	for _, sib := range p.LWPs {
		if sib != l {
			sib.forgetSleep()
			sib.setSchedState(LZombie)
		}
	}
	old := p.AS
	p.AS = newAS
	l.CPU.AS = newAS
	if old != nil {
		if old.Unref() {
			old.Release()
		}
		// No other CPU may keep serving translations for the retired space.
		k.shootdown(old)
	}
	if p.borrowsAS {
		// A vfork child gives the borrowed space back on exec.
		p.borrowsAS = false
		k.wakeAll(&p.vforkQ)
	}

	// Fresh registers at the entry point.
	l.CPU.Regs = vcpuRegsAt(entry)
	l.CPU.FP = fpZero()

	// Caught signals revert to default action; ignored ones stay ignored.
	for sig := 1; sig <= types.MaxSig; sig++ {
		if p.Actions[sig].Handler > SigIGN {
			p.Actions[sig] = SigAction{}
		}
	}

	base := abs
	for i := len(abs) - 1; i >= 0; i-- {
		if abs[i] == '/' {
			base = abs[i+1:]
			break
		}
	}
	p.Comm = base
	if args == nil {
		args = []string{base}
	}
	p.Args = args
	p.ExecVN = vn
	p.ExecPath = abs
	syms := make([]Sym, len(img.Syms))
	for i, s := range img.Syms {
		syms[i] = Sym{Name: s.Name, Value: s.Value}
	}
	p.ImageSyms = func() ([]Sym, bool) { return syms, true }

	// A ptrace-traced process receives SIGTRAP after exec so the parent
	// regains control before the new image runs.
	if p.Ptraced {
		k.PostSignal(p, types.SIGTRAP)
	}
	k.tracef("pid %d exec %s", p.Pid, abs)
	return ret(0)
}

// loadImage reads and parses an executable.
func (k *Kernel) loadImage(vn vfs.Vnode) (*xout.File, Errno) {
	h, err := vn.VOpen(vfs.ORead, types.RootCred())
	if err != nil {
		return nil, EACCES
	}
	defer h.HClose()
	attr, _ := vn.VAttr()
	data := make([]byte, attr.Size)
	got, err := h.HRead(data, 0)
	if err != nil && err != vfs.EOF {
		return nil, EIO
	}
	img, perr := xout.Unmarshal(data[:got])
	if perr != nil {
		return nil, ENOEXEC
	}
	return img, 0
}

// buildAS constructs the address space for an image: a private read/exec
// text mapping of the executable, a private read/write data mapping, an
// anonymous break (bss) mapping, a stack mapping the system will grow
// automatically, and the text and data of each shared library.
func (k *Kernel) buildAS(vn vfs.Vnode, path string, img *xout.File, pid int) (*mem.AS, uint32, Errno) {
	if siteFaultExec.Hit(pid) {
		return nil, 0, ENOMEM
	}
	as := mem.NewAS(k.PageSize)
	as.SetOwner(pid)
	obj, ok := vn.(mem.Object)
	if !ok {
		// Executables on file systems that cannot be mapped directly are
		// copied into an anonymous immutable object.
		obj = &mem.ByteObject{Name: path, Data: append(append([]byte{}, img.Text...), img.Data...)}
	}
	if len(img.Text) > 0 {
		if _, err := as.Map(mem.MapArgs{
			Base: xout.TextBase, Len: uint32(len(img.Text)), Prot: mem.ProtRX,
			Obj: obj, Off: imageTextOff(obj, img), Kind: mem.KindText, Fixed: true,
		}); err != nil {
			return nil, 0, ENOMEM
		}
	}
	if len(img.Data) > 0 {
		if _, err := as.Map(mem.MapArgs{
			Base: img.DataBase(), Len: uint32(len(img.Data)), Prot: mem.ProtRW,
			Obj: obj, Off: imageTextOff(obj, img) + int64(len(img.Text)),
			Kind: mem.KindData, Fixed: true,
		}); err != nil {
			return nil, 0, ENOMEM
		}
	}
	bss := img.BSSSize
	if bss == 0 {
		bss = uint32(k.PageSize)
	}
	brkSeg, err := as.Map(mem.MapArgs{
		Base: img.BSSBase(), Len: bss, Prot: mem.ProtRW, Kind: mem.KindBreak, Fixed: true,
	})
	if err != nil {
		return nil, 0, ENOMEM
	}
	as.SetBrk(brkSeg)
	stk, err := as.Map(mem.MapArgs{
		Base: xout.StackTop - xout.StackInit, Len: xout.StackInit,
		Prot: mem.ProtRW, Kind: mem.KindStack, Fixed: true,
	})
	if err != nil {
		return nil, 0, ENOMEM
	}
	as.SetStack(stk, xout.StackLimit)

	// Map shared libraries: code and data of a shared library executable
	// file are mapped into the address space, as the paper describes.
	for i, lib := range img.Libs {
		libBase := uint32(xout.LibBase + i*xout.LibStride)
		lvn, err := k.NS.Lookup("/lib/"+lib, types.RootCred())
		if err != nil {
			return nil, 0, ENOENT
		}
		limg, errno := k.loadImage(lvn)
		if errno != 0 {
			return nil, 0, errno
		}
		lobj, ok := lvn.(mem.Object)
		if !ok {
			lobj = &mem.ByteObject{Name: "/lib/" + lib,
				Data: append(append([]byte{}, limg.Text...), limg.Data...)}
		}
		loff := imageTextOff(lobj, limg)
		if len(limg.Text) > 0 {
			if _, err := as.Map(mem.MapArgs{
				Base: libBase, Len: uint32(len(limg.Text)), Prot: mem.ProtRX,
				Obj: lobj, Off: loff, Kind: mem.KindShlibText, Fixed: true,
			}); err != nil {
				return nil, 0, ENOMEM
			}
		}
		dataBase := libBase + roundUp32(uint32(len(limg.Text)), xout.SegAlign)
		if len(limg.Data) > 0 {
			if _, err := as.Map(mem.MapArgs{
				Base: dataBase, Len: uint32(len(limg.Data)), Prot: mem.ProtRW,
				Obj: lobj, Off: loff + int64(len(limg.Text)), Kind: mem.KindShlibData, Fixed: true,
			}); err != nil {
				return nil, 0, ENOMEM
			}
		}
	}
	return as, img.Entry, 0
}

// imageTextOff returns the object offset of the text bytes. For memfs files
// the object is the raw xout file, so the text starts after the header; for
// ByteObject fallbacks the object holds text+data only.
func imageTextOff(obj mem.Object, img *xout.File) int64 {
	if _, ok := obj.(*mem.ByteObject); ok {
		return 0
	}
	return int64(obj.ObjSize()) - int64(len(img.Text)) - int64(len(img.Data))
}

func roundUp32(n, align uint32) uint32 {
	if n == 0 {
		return align
	}
	return (n + align - 1) &^ (align - 1)
}
