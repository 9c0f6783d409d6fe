package procfs2

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// fileVnode is one status or control file within a process (or LWP)
// directory.
type fileVnode struct {
	fs   *FS
	p    *kernel.Proc
	l    *kernel.LWP // nil for process-level files
	name string
}

// writable reports whether this file is a control surface.
func (v *fileVnode) writable() bool {
	return v.name == FileCtl || v.name == FileLWPCtl || v.name == FileAS
}

// VAttr implements vfs.Vnode.
//
// Like the flat interface, these handlers are host-side entry points that
// may run concurrently with the SMP scheduler, so they take the global
// kernel lock plus the per-process lock around process state — the kernel's
// cross-process contract (both no-ops in deterministic mode).
func (v *fileVnode) VAttr() (vfs.Attr, error) {
	v.fs.K.GlobalLock()
	v.p.Lock()
	defer func() {
		v.p.Unlock()
		v.fs.K.GlobalUnlock()
	}()
	mode := uint16(0o400)
	if v.writable() {
		mode = 0o200
		if v.name == FileAS {
			mode = 0o600
		}
	}
	size := int64(0)
	if v.name == FileAS {
		size = v.p.VirtSize()
	}
	if v.name == FileTrace {
		size = ringSize(v.p.KT)
	}
	return vfs.Attr{Type: vfs.VPROC, Mode: mode,
		UID: v.p.Cred.RUID, GID: v.p.Cred.RGID,
		Size: size, MTime: v.fs.K.Now(), Nlink: 1}, nil
}

// VOpen implements vfs.Vnode, with the same security rule and writer
// accounting as the flat interface, so run-on-last-close and set-id exec
// invalidation behave identically across the two interfaces.
func (v *fileVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	p := v.p
	v.fs.K.GlobalLock()
	p.Lock()
	defer func() {
		p.Unlock()
		v.fs.K.GlobalUnlock()
	}()
	if p.State() == kernel.PGone {
		return nil, vfs.ErrNotExist
	}
	if err := checkOpen(p, c); err != nil {
		return nil, err
	}
	writer := flags&vfs.OWrite != 0
	if writer && !v.writable() {
		return nil, vfs.ErrPerm
	}
	if v.name == FileCtl || v.name == FileLWPCtl {
		// Control files are write-only.
		if !writer || flags&vfs.ORead != 0 {
			return nil, vfs.ErrPerm
		}
	}
	if writer {
		if p.Trace.Excl {
			return nil, vfs.ErrBusy
		}
		if flags&vfs.OExcl != 0 {
			if p.Trace.Writers > 0 {
				return nil, vfs.ErrBusy
			}
			p.Trace.Excl = true
		}
		p.Trace.Writers++
	}
	return &fileHandle{
		v: v, flags: flags, gen: p.Trace.Gen,
		excl: writer && flags&vfs.OExcl != 0,
	}, nil
}

// fileHandle is the open state of one status/control file.
type fileHandle struct {
	v      *fileVnode
	flags  int
	gen    int
	excl   bool
	closed bool
}

func (h *fileHandle) valid() error {
	if h.closed {
		return vfs.ErrBadFD
	}
	if h.gen != h.v.p.Trace.Gen {
		return vfs.ErrStale
	}
	if !h.v.p.Alive() {
		return vfs.ErrNotExist
	}
	return nil
}

// snapshot produces the current contents of a read-only status file.
func (h *fileHandle) snapshot() ([]byte, error) {
	p := h.v.p
	switch h.v.name {
	case FileStatus:
		st, err := p.Status()
		if err != nil {
			return nil, vfs.ErrNotExist
		}
		return EncodeStatus(st), nil
	case FileLWPStatus:
		return EncodeStatus(h.v.l.LWPStatus()), nil
	case FilePSInfo:
		return EncodePSInfo(p.PSInfo()), nil
	case FileMap:
		var entries []MapEntry
		if p.AS != nil {
			for _, s := range p.AS.SegsView() {
				entries = append(entries, MapEntry{
					Vaddr: s.Base, Size: s.Len, Off: s.Off,
					Prot: uint32(s.Prot), Shared: s.Shared,
					Kind: int32(s.Kind), Name: s.ObjName(),
				})
			}
		}
		return EncodeMap(entries), nil
	case FileCred:
		return EncodeCred(p.Credentials()), nil
	case FileUsage:
		return EncodeUsage(procfs.UsageOf(p)), nil
	}
	return nil, vfs.ErrInval
}

// HRead implements vfs.Handle. Status files return a snapshot taken at
// offset zero; the as file reads the address space at the offset.
func (h *fileHandle) HRead(b []byte, off int64) (int, error) {
	k := h.v.fs.K
	p := h.v.p
	// psinfo works on zombies, like PIOCPSINFO; so does trace, which must be
	// drainable after the target exits (the exit event is the last record).
	if h.v.name == FilePSInfo || h.v.name == FileTrace {
		if h.closed {
			return 0, vfs.ErrBadFD
		}
	} else {
		k.GlobalLock()
		p.Lock()
		err := h.valid()
		p.Unlock()
		k.GlobalUnlock()
		if err != nil {
			return 0, err
		}
	}
	switch h.v.name {
	case FileCtl, FileLWPCtl:
		return 0, vfs.ErrBadFD
	case FileTrace:
		k.GlobalLock()
		defer k.GlobalUnlock()
		return ringRead(p.KT, b, off)
	case FileAS:
		k.GlobalLock()
		p.Lock()
		as := p.AS
		p.Unlock()
		k.GlobalUnlock()
		if as == nil {
			return 0, vfs.ErrInval
		}
		n, err := as.ReadAt(b, off)
		if err != nil {
			return 0, vfs.Errorf("procfs2: as read at unmapped offset %#x", off)
		}
		return n, nil
	}
	k.GlobalLock()
	p.Lock()
	snap, err := h.snapshot()
	p.Unlock()
	k.GlobalUnlock()
	if err != nil {
		return 0, err
	}
	if off >= int64(len(snap)) {
		return 0, vfs.EOF
	}
	return copy(b, snap[off:]), nil
}

// HWrite implements vfs.Handle: control messages for ctl files, address
// space stores for the as file.
func (h *fileHandle) HWrite(b []byte, off int64) (int, error) {
	k := h.v.fs.K
	p := h.v.p
	k.GlobalLock()
	p.Lock()
	err := h.valid()
	if err == nil && h.flags&vfs.OWrite == 0 {
		err = vfs.ErrBadFD
	}
	as := p.AS
	p.Unlock()
	k.GlobalUnlock()
	if err != nil {
		return 0, err
	}
	switch h.v.name {
	case FileCtl:
		// runCtl locks per control message (the wait-style messages drive
		// the scheduler and must run unlocked), so it is entered bare.
		return h.v.fs.runCtl(h.v.p, nil, b)
	case FileLWPCtl:
		return h.v.fs.runCtl(h.v.p, h.v.l, b)
	case FileAS:
		if as == nil {
			return 0, vfs.ErrInval
		}
		n, err := as.WriteAt(b, off)
		if err != nil {
			if err == mem.ErrNoMem {
				// A refused page materialization is a transient resource
				// failure, not an address error; report it as such.
				return 0, vfs.ErrAgain
			}
			return 0, vfs.Errorf("procfs2: as write at unmapped offset %#x", off)
		}
		return n, nil
	}
	return 0, vfs.ErrBadFD
}

// HIoctl implements vfs.Handle: there are no ioctls in the restructured
// interface — that is its point.
func (h *fileHandle) HIoctl(cmd int, arg interface{}) error { return vfs.ErrNoIoctl }

// HClose implements vfs.Handle with the run-on-last-close behavior.
func (h *fileHandle) HClose() error {
	if h.closed {
		return vfs.ErrBadFD
	}
	h.closed = true
	p := h.v.p
	h.v.fs.K.GlobalLock()
	p.Lock()
	defer func() {
		p.Unlock()
		h.v.fs.K.GlobalUnlock()
	}()
	stale := h.gen != p.Trace.Gen
	if h.flags&vfs.OWrite != 0 && !stale {
		if h.excl {
			p.Trace.Excl = false
		}
		if p.Trace.Writers > 0 {
			p.Trace.Writers--
		}
		if p.Trace.Writers == 0 && p.Trace.RunLC && p.Alive() {
			h.v.fs.K.ReleaseTracing(p)
		}
	}
	return nil
}

// HPoll implements vfs.Poller: ready on an event-of-interest stop. For LWP
// files, ready when that LWP stops.
func (h *fileHandle) HPoll(mask int) int {
	if h.closed || mask&vfs.PollPri == 0 {
		return 0
	}
	h.v.fs.K.GlobalLock()
	h.v.p.Lock()
	defer func() {
		h.v.p.Unlock()
		h.v.fs.K.GlobalUnlock()
	}()
	if !h.v.p.Alive() {
		return 0
	}
	if h.v.l != nil {
		if h.v.l.StoppedOnEvent() {
			return vfs.PollPri
		}
		return 0
	}
	if h.v.p.EventStoppedLWP() != nil {
		return vfs.PollPri
	}
	return 0
}

// HSaveState / HLoadState implement vfs.HandleSnapshotter; as with the
// flat interface, the closed flag is the only mutable per-open state.
func (h *fileHandle) HSaveState() any { return h.closed }
func (h *fileHandle) HLoadState(st any) {
	if c, ok := st.(bool); ok {
		h.closed = c
	}
}

var (
	_ vfs.Handle            = (*fileHandle)(nil)
	_ vfs.Poller            = (*fileHandle)(nil)
	_ vfs.HandleSnapshotter = (*fileHandle)(nil)
)
