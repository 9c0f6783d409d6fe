package procfs2

import (
	"repro/internal/fault"
	"repro/internal/types"
	"repro/internal/vfs"
)

// RootFaults is /procx/faults, the fault-injection control file. Reading it
// lists every registered site with its armed plan and cumulative hit and
// injection counters; writing it installs, clears, or resets plans, one
// command per line ("mem.page nth=3 pid=5", "clear kernel.fork", "reset").
// Arming faults perturbs the whole system, so both directions are root-only.
const RootFaults = "faults"

// rootFaultsVnode is /procx/faults.
type rootFaultsVnode struct {
	fs *FS
}

// VAttr implements vfs.Vnode.
func (v *rootFaultsVnode) VAttr() (vfs.Attr, error) {
	return vfs.Attr{Type: vfs.VPROC, Mode: 0o600,
		Size:  int64(len(fault.Default.EncodeText())),
		MTime: v.fs.K.Now(), Nlink: 1}, nil
}

// VOpen implements vfs.Vnode.
func (v *rootFaultsVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if !c.IsSuper() {
		return nil, vfs.ErrPerm
	}
	return &rootFaultsHandle{v: v}, nil
}

// rootFaultsHandle is the open state of /procx/faults.
type rootFaultsHandle struct {
	v      *rootFaultsVnode
	closed bool
}

// HRead implements vfs.Handle. The listing is regenerated on every read, so
// counters are always current; a reader paging through with a growing offset
// sees a consistent snapshot only within one read, as with the status files.
func (h *rootFaultsHandle) HRead(b []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrBadFD
	}
	snap := fault.Default.EncodeText()
	if off >= int64(len(snap)) {
		return 0, vfs.EOF
	}
	return copy(b, snap[off:]), nil
}

// HWrite implements vfs.Handle: each line of the write is one control
// command. Like the ctl files, a failed command rejects the whole write:
// no line of it is applied.
func (h *rootFaultsHandle) HWrite(b []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrBadFD
	}
	if err := fault.Default.ExecAll(string(b)); err != nil {
		return 0, vfs.Errorf("procfs2: faults: %w", err)
	}
	return len(b), nil
}

// HIoctl implements vfs.Handle.
func (h *rootFaultsHandle) HIoctl(cmd int, arg interface{}) error { return vfs.ErrNoIoctl }

// HClose implements vfs.Handle.
func (h *rootFaultsHandle) HClose() error {
	if h.closed {
		return vfs.ErrBadFD
	}
	h.closed = true
	return nil
}

// HSaveState / HLoadState implement vfs.HandleSnapshotter.
func (h *rootFaultsHandle) HSaveState() any { return h.closed }
func (h *rootFaultsHandle) HLoadState(st any) {
	if c, ok := st.(bool); ok {
		h.closed = c
	}
}
