package procfs2

import (
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// RootSnapshot is the batched whole-table snapshot file beside the pid
// directories: one open plus sequential reads return the same records
// PIOCSNAP does on the flat interface, encoded with the wire codec — the
// restructuring's answer to the batched ioctl, and like the rest of this
// interface it crosses a network as plain bytes.
const RootSnapshot = "snapshot"

// rootSnapVnode is /procx/snapshot.
type rootSnapVnode struct{ fs *FS }

// VAttr implements vfs.Vnode. Anyone may open the file; the contents are
// filtered to the processes the opener could open individually.
func (v *rootSnapVnode) VAttr() (vfs.Attr, error) {
	return vfs.Attr{Type: vfs.VPROC, Mode: 0o444,
		MTime: v.fs.K.Now(), Nlink: 1}, nil
}

// VOpen implements vfs.Vnode.
func (v *rootSnapVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if flags&vfs.OWrite != 0 {
		return nil, vfs.ErrPerm
	}
	return &rootSnapHandle{fs: v.fs, cred: c}, nil
}

// rootSnapHandle is the open state of the snapshot file. The table is
// walked when offset zero is read and the encoding is kept for the handle's
// subsequent reads, so a reader paging through the file in pieces (a remote
// client bounded by its transfer size) sees one coherent snapshot rather
// than a fresh table per read. Rewinding to offset zero takes a new one.
type rootSnapHandle struct {
	fs     *FS
	cred   types.Cred
	buf    []byte
	closed bool
}

// HRead implements vfs.Handle.
func (h *rootSnapHandle) HRead(b []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrBadFD
	}
	if h.buf == nil || off == 0 {
		sn := procfs.PrSnap{WithUsage: true}
		if err := procfs.Snapshot(h.fs.K, h.cred, &sn); err != nil {
			return 0, err
		}
		h.buf = AppendSnap(h.buf[:0], &sn)
	}
	if off >= int64(len(h.buf)) {
		return 0, vfs.EOF
	}
	return copy(b, h.buf[off:]), nil
}

// HWrite implements vfs.Handle.
func (h *rootSnapHandle) HWrite(b []byte, off int64) (int, error) {
	return 0, vfs.ErrBadFD
}

// HIoctl implements vfs.Handle.
func (h *rootSnapHandle) HIoctl(cmd int, arg interface{}) error { return vfs.ErrNoIoctl }

// HClose implements vfs.Handle.
func (h *rootSnapHandle) HClose() error {
	if h.closed {
		return vfs.ErrBadFD
	}
	h.closed = true
	return nil
}

// snapHandleState is the checkpointed per-open state: the closed flag and
// the coherent-snapshot cache a paging reader is in the middle of.
type snapHandleState struct {
	closed bool
	buf    []byte
}

// HSaveState / HLoadState implement vfs.HandleSnapshotter.
func (h *rootSnapHandle) HSaveState() any {
	return snapHandleState{closed: h.closed, buf: append([]byte(nil), h.buf...)}
}

func (h *rootSnapHandle) HLoadState(st any) {
	if s, ok := st.(snapHandleState); ok {
		h.closed = s.closed
		h.buf = append([]byte(nil), s.buf...)
	}
}
