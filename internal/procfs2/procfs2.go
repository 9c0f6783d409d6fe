package procfs2

import (
	"fmt"
	"strconv"

	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// FS is the restructured process file system. It is conventionally mounted
// at /procx beside the flat /proc so both interfaces can be compared; a real
// system would mount it at /proc.
type FS struct {
	K       *kernel.Kernel
	MaxWait int
}

// New creates the file system.
func New(k *kernel.Kernel) *FS {
	return &FS{K: k, MaxWait: 5_000_000}
}

// Root returns the directory vnode to mount.
func (fs *FS) Root() vfs.Dir { return &rootDir{fs: fs} }

// File names within a process directory.
const (
	FileStatus = "status" // read-only: EncodeStatus of the representative LWP
	FilePSInfo = "psinfo" // read-only: EncodePSInfo
	FileCtl    = "ctl"    // write-only: structured control messages
	FileAS     = "as"     // read/write: the address space
	FileMap    = "map"    // read-only: EncodeMap
	FileCred   = "cred"   // read-only: EncodeCred
	FileUsage  = "usage"  // read-only: EncodeUsage
	FileTrace  = "trace"  // read-only: the process's ktrace event stream
	DirLWP     = "lwp"    // directory of threads of control
)

// LWP subdirectory file names.
const (
	FileLWPStatus = "lwpstatus"
	FileLWPCtl    = "lwpctl"
)

// rootDir lists one directory per process.
type rootDir struct{ fs *FS }

// VAttr implements vfs.Vnode.
//
// As in the flat interface, every vnode and handle operation runs with the
// kernel's global lock already held by its entry point (a simulated
// process's system call, or the vfs.Client gateway of the locked /procx
// mount) and takes only a target's Proc lock.
func (r *rootDir) VAttr() (vfs.Attr, error) {
	return vfs.Attr{Type: vfs.VDIR, Mode: 0o555,
		Size: int64(len(r.fs.K.Procs())), MTime: r.fs.K.Now(), Nlink: 2}, nil
}

// VOpen implements vfs.Vnode.
func (r *rootDir) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if flags&vfs.OWrite != 0 {
		return nil, vfs.ErrIsDir
	}
	return dirHandle{}, nil
}

// VLookup implements vfs.Dir.
func (r *rootDir) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	switch name {
	case RootKTrace, RootTrace:
		return &rootTraceVnode{fs: r.fs, name: name}, nil
	case RootFaults:
		return &rootFaultsVnode{fs: r.fs}, nil
	case RootSnapshot:
		return &rootSnapVnode{fs: r.fs}, nil
	}
	pid, err := strconv.Atoi(name)
	if err != nil || pid < 0 {
		return nil, vfs.ErrNotExist
	}
	p := r.fs.K.Proc(pid)
	if p == nil {
		return nil, vfs.ErrNotExist
	}
	return &pidDir{fs: r.fs, p: p}, nil
}

// VReadDir implements vfs.Dir.
func (r *rootDir) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	var out []vfs.Dirent
	for _, name := range []string{RootKTrace, RootTrace} {
		vn := &rootTraceVnode{fs: r.fs, name: name}
		attr, _ := vn.VAttr()
		out = append(out, vfs.Dirent{Name: name, Attr: attr})
	}
	{
		vn := &rootFaultsVnode{fs: r.fs}
		attr, _ := vn.VAttr()
		out = append(out, vfs.Dirent{Name: RootFaults, Attr: attr})
	}
	{
		vn := &rootSnapVnode{fs: r.fs}
		attr, _ := vn.VAttr()
		out = append(out, vfs.Dirent{Name: RootSnapshot, Attr: attr})
	}
	for _, p := range r.fs.K.Procs() {
		d := &pidDir{fs: r.fs, p: p}
		attr, _ := d.VAttr()
		out = append(out, vfs.Dirent{Name: procfs.PidName(p.Pid), Attr: attr})
	}
	return out, nil
}

type dirHandle struct{}

func (dirHandle) HRead(p []byte, off int64) (int, error)  { return 0, vfs.ErrIsDir }
func (dirHandle) HWrite(p []byte, off int64) (int, error) { return 0, vfs.ErrIsDir }
func (dirHandle) HIoctl(cmd int, arg interface{}) error   { return vfs.ErrNoIoctl }
func (dirHandle) HClose() error                           { return nil }

// pidDir is /procx/<pid>: the hierarchy with the process-id at the top.
type pidDir struct {
	fs *FS
	p  *kernel.Proc
}

// VAttr implements vfs.Vnode.
func (d *pidDir) VAttr() (vfs.Attr, error) {
	d.p.Lock()
	defer d.p.Unlock()
	return vfs.Attr{Type: vfs.VDIR, Mode: 0o555,
		UID: d.p.Cred.RUID, GID: d.p.Cred.RGID,
		Size: d.p.VirtSize(), MTime: d.fs.K.Now(), Nlink: 2}, nil
}

// VOpen implements vfs.Vnode.
func (d *pidDir) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if flags&vfs.OWrite != 0 {
		return nil, vfs.ErrIsDir
	}
	return dirHandle{}, nil
}

// VLookup implements vfs.Dir.
func (d *pidDir) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	switch name {
	case FileStatus, FilePSInfo, FileCtl, FileAS, FileMap, FileCred, FileUsage, FileTrace:
		return &fileVnode{fs: d.fs, p: d.p, name: name}, nil
	case DirLWP:
		return &lwpDir{fs: d.fs, p: d.p}, nil
	}
	return nil, vfs.ErrNotExist
}

// VReadDir implements vfs.Dir.
func (d *pidDir) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	var out []vfs.Dirent
	for _, name := range []string{FileStatus, FilePSInfo, FileCtl, FileAS, FileMap, FileCred, FileUsage, FileTrace, DirLWP} {
		vn, _ := d.VLookup(name, c)
		attr, _ := vn.VAttr()
		out = append(out, vfs.Dirent{Name: name, Attr: attr})
	}
	return out, nil
}

// lwpDir is /procx/<pid>/lwp.
type lwpDir struct {
	fs *FS
	p  *kernel.Proc
}

// VAttr implements vfs.Vnode.
func (d *lwpDir) VAttr() (vfs.Attr, error) {
	d.p.Lock()
	defer d.p.Unlock()
	return vfs.Attr{Type: vfs.VDIR, Mode: 0o555,
		UID: d.p.Cred.RUID, GID: d.p.Cred.RGID,
		Size: int64(d.p.NLiveLWPs()), MTime: d.fs.K.Now(), Nlink: 2}, nil
}

// VOpen implements vfs.Vnode.
func (d *lwpDir) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if flags&vfs.OWrite != 0 {
		return nil, vfs.ErrIsDir
	}
	return dirHandle{}, nil
}

// VLookup implements vfs.Dir.
func (d *lwpDir) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	id, err := strconv.Atoi(name)
	if err != nil {
		return nil, vfs.ErrNotExist
	}
	l := d.p.LWP(id)
	if l == nil {
		return nil, vfs.ErrNotExist
	}
	return &lwpSubDir{fs: d.fs, p: d.p, l: l}, nil
}

// VReadDir implements vfs.Dir.
func (d *lwpDir) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	var out []vfs.Dirent
	for _, l := range d.p.LiveLWPs() {
		sub := &lwpSubDir{fs: d.fs, p: d.p, l: l}
		attr, _ := sub.VAttr()
		out = append(out, vfs.Dirent{Name: fmt.Sprint(l.ID), Attr: attr})
	}
	return out, nil
}

// lwpSubDir is /procx/<pid>/lwp/<lwpid>.
type lwpSubDir struct {
	fs *FS
	p  *kernel.Proc
	l  *kernel.LWP
}

// VAttr implements vfs.Vnode.
func (d *lwpSubDir) VAttr() (vfs.Attr, error) {
	d.p.Lock()
	defer d.p.Unlock()
	return vfs.Attr{Type: vfs.VDIR, Mode: 0o555,
		UID: d.p.Cred.RUID, GID: d.p.Cred.RGID, MTime: d.fs.K.Now(), Nlink: 2}, nil
}

// VOpen implements vfs.Vnode.
func (d *lwpSubDir) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if flags&vfs.OWrite != 0 {
		return nil, vfs.ErrIsDir
	}
	return dirHandle{}, nil
}

// VLookup implements vfs.Dir.
func (d *lwpSubDir) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	switch name {
	case FileLWPStatus, FileLWPCtl:
		return &fileVnode{fs: d.fs, p: d.p, l: d.l, name: name}, nil
	}
	return nil, vfs.ErrNotExist
}

// VReadDir implements vfs.Dir.
func (d *lwpSubDir) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	var out []vfs.Dirent
	for _, name := range []string{FileLWPStatus, FileLWPCtl} {
		vn, _ := d.VLookup(name, c)
		attr, _ := vn.VAttr()
		out = append(out, vfs.Dirent{Name: name, Attr: attr})
	}
	return out, nil
}
