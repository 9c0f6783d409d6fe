package procfs2

import (
	"repro/internal/kernel"
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
func (v *fileVnode) VAttr() (vfs.Attr, error) {
	v.p.Lock()
	defer v.p.Unlock()
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

// VOpen implements vfs.Vnode. Past the file's own mode, the open is the
// kernel's /proc open the flat interface makes too — one security rule and
// one writer accounting — so run-on-last-close and set-id exec
// invalidation behave identically across the two interfaces.
func (v *fileVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	writer := flags&vfs.OWrite != 0
	if writer && !v.writable() {
		return nil, vfs.ErrPerm
	}
	if (v.name == FileCtl || v.name == FileLWPCtl) && (!writer || flags&vfs.ORead != 0) {
		return nil, vfs.ErrPerm // control files are write-only
	}
	pf, err := v.fs.K.OpenProcFile(v.p, v.l, flags, c)
	if err != nil {
		return nil, err
	}
	return &fileHandle{ProcFile: pf, v: v}, nil
}

// fileHandle is the open state of one status/control file: the kernel's
// shared /proc descriptor (validity, writer accounting, close and poll)
// plus the file's reader or ctl-message decoder.
type fileHandle struct {
	*kernel.ProcFile
	v *fileVnode
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
	p := h.v.p
	var snap []byte
	switch h.v.name {
	case FileCtl, FileLWPCtl:
		return 0, vfs.ErrBadFD
	case FileAS:
		return h.ReadAS(b, off)
	case FileTrace, FilePSInfo:
		// psinfo works on zombies, like PIOCPSINFO; so does trace, which
		// must be drainable after the target exits (the exit event is the
		// last record).
		if h.Closed() {
			return 0, vfs.ErrBadFD
		}
		if h.v.name == FileTrace {
			return ringRead(p.KT, b, off)
		}
		p.Lock()
		snap = EncodePSInfo(p.PSInfo())
		p.Unlock()
	default:
		if err := h.Lock(false); err != nil {
			return 0, err
		}
		var err error
		snap, err = h.snapshot()
		h.Unlock()
		if err != nil {
			return 0, err
		}
	}
	if off >= int64(len(snap)) {
		return 0, vfs.EOF
	}
	return copy(b, snap[off:]), nil
}

// HWrite implements vfs.Handle: control messages for ctl files, address
// space stores for the as file.
func (h *fileHandle) HWrite(b []byte, off int64) (int, error) {
	switch h.v.name {
	case FileCtl, FileLWPCtl:
		return h.runCtl(b)
	case FileAS:
		return h.WriteAS(b, off)
	}
	return 0, vfs.ErrBadFD
}

// HIoctl implements vfs.Handle: there are no ioctls in the restructured
// interface — that is its point.
func (h *fileHandle) HIoctl(cmd int, arg interface{}) error { return vfs.ErrNoIoctl }

var (
	_ vfs.Handle            = (*fileHandle)(nil)
	_ vfs.Poller            = (*fileHandle)(nil)
	_ vfs.HandleSnapshotter = (*fileHandle)(nil)
)
