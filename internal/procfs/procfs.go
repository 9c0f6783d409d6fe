// Package procfs implements the SVR4 process file system — the paper's
// central contribution. Every process in the system appears as a file in a
// directory conventionally named /proc; the name of each entry is a decimal
// number corresponding to the process id, the owner and group are the
// process's real user-id and group-id, and the reported size is the total
// virtual memory size of the process.
//
// Standard system call interfaces access the files: open, close, lseek,
// read, write and ioctl. Data may be transferred from or to any valid
// locations in the process's address space by applying lseek to position the
// file at the virtual address of interest followed by read or write.
// Information and control operations are provided through ioctl.
//
// The implementation mirrors the paper's: /proc is an fstype under the VFS —
// lookups construct vnodes for live processes (prlookup), reading the
// directory synthesizes entries for every process (preaddir), and
// read/write/ioctl on a process file turn into address-space I/O and
// process-control operations (prread/prwrite/prioctl).
package procfs

import (
	"fmt"
	"strconv"

	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vfs"
)

// FS is a /proc file system instance over one kernel.
type FS struct {
	K *kernel.Kernel
	// MaxWait bounds the scheduling work a blocking operation (PIOCSTOP,
	// PIOCWSTOP) will perform before giving up.
	MaxWait int
}

// New creates the file system.
func New(k *kernel.Kernel) *FS {
	return &FS{K: k, MaxWait: 5_000_000}
}

// Root returns the /proc directory vnode, ready to be mounted.
func (fs *FS) Root() vfs.Dir { return &rootVnode{fs: fs} }

// PidName formats a pid the way /proc names its entries ("00042").
func PidName(pid int) string { return fmt.Sprintf("%05d", pid) }

// rootVnode is the /proc directory: its contents are synthesized from the
// process table on every operation, the "fantasy world" of the paper.
//
// Every vnode and handle operation below runs with the kernel's global lock
// already held by its entry point: a simulated process's file system call,
// or the vfs.Client gateway of the locked /proc mount for host callers
// (debuggers, ps, rfs). The operations take only a target's Proc lock.
type rootVnode struct{ fs *FS }

// VAttr implements vfs.Vnode.
func (r *rootVnode) VAttr() (vfs.Attr, error) {
	return vfs.Attr{
		Type: vfs.VDIR, Mode: 0o555, UID: 0, GID: 0,
		Size: int64(len(r.fs.K.Procs())), MTime: r.fs.K.Now(), Nlink: 2,
	}, nil
}

// VOpen implements vfs.Vnode. The directory handle remembers the opening
// credentials: PIOCSNAP, the batched snapshot, is issued on it and filters
// the table by the same rule the per-process opens enforce.
func (r *rootVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if flags&vfs.OWrite != 0 {
		return nil, vfs.ErrIsDir
	}
	return &rootHandle{fs: r.fs, cred: c}, nil
}

// VLookup implements vfs.Dir: prlookup searches the process table for the
// named pid and constructs a vnode for it.
func (r *rootVnode) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	pid, err := strconv.Atoi(name)
	if err != nil || pid < 0 {
		return nil, vfs.ErrNotExist
	}
	p := r.fs.K.Proc(pid)
	if p == nil {
		return nil, vfs.ErrNotExist
	}
	return &ProcVnode{FS: r.fs, P: p}, nil
}

// VReadDir implements vfs.Dir: preaddir examines the system process
// structures and constructs a set of directory entries naming all the
// processes in the system.
func (r *rootVnode) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	var out []vfs.Dirent
	for _, p := range r.fs.K.Procs() {
		attr, _ := (&ProcVnode{FS: r.fs, P: p}).VAttr()
		out = append(out, vfs.Dirent{Name: PidName(p.Pid), Attr: attr})
	}
	return out, nil
}

// ProcVnode is the vnode of one process file.
type ProcVnode struct {
	FS *FS
	P  *kernel.Proc
}

// VAttr implements vfs.Vnode: the owner and group of the file are the
// process's real user-id and group-id, and the size is the total virtual
// memory size (system processes such as 0 and 2 have no user-level address
// space, so their sizes are zero).
func (v *ProcVnode) VAttr() (vfs.Attr, error) {
	v.P.Lock()
	defer v.P.Unlock()
	return vfs.Attr{
		Type: vfs.VPROC, Mode: 0o600,
		UID: v.P.Cred.RUID, GID: v.P.Cred.RGID,
		Size: v.P.VirtSize(), MTime: v.FS.K.Now(), Nlink: 1,
	}, nil
}

// VOpen implements vfs.Vnode. Permission to open is more restrictive than
// traditional file system permissions: both the uid and gid of the traced
// process must match those of the controlling process; set-id processes can
// be opened only by the super-user. A /proc file may be opened for exclusive
// read/write use with O_EXCL; read-only opens are unaffected by exclusivity.
func (v *ProcVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	pf, err := v.FS.K.OpenProcFile(v.P, nil, flags, c)
	if err != nil {
		return nil, err
	}
	return &Handle{ProcFile: pf, fs: v.FS}, nil
}

var _ vfs.Vnode = (*ProcVnode)(nil)

// Handle is the open state of a process file: the kernel's shared /proc
// descriptor (validity, writer accounting, close and poll) plus the ioctl
// decoder.
type Handle struct {
	*kernel.ProcFile
	fs *FS
}

// HRead implements vfs.Handle: reads the process address space at the
// virtual address given by the file offset.
func (h *Handle) HRead(b []byte, off int64) (int, error) { return h.ReadAS(b, off) }

// HWrite implements vfs.Handle: writes the process address space.
func (h *Handle) HWrite(b []byte, off int64) (int, error) { return h.WriteAS(b, off) }

var (
	_ vfs.Handle            = (*Handle)(nil)
	_ vfs.Poller            = (*Handle)(nil)
	_ vfs.HandleSnapshotter = (*Handle)(nil)
)
