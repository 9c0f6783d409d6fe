package kernel

import (
	"sort"

	"repro/internal/types"
	"repro/internal/vfs"
)

// OpenFDLimit is the per-process file descriptor limit.
const OpenFDLimit = 64

// mapErr converts a vfs error to an errno.
func mapErr(err error) Errno {
	switch err {
	case nil:
		return 0
	case vfs.ErrNotExist:
		return ENOENT
	case vfs.ErrPerm:
		return EACCES
	case vfs.ErrNotDir:
		return ENOTDIR
	case vfs.ErrIsDir:
		return EISDIR
	case vfs.ErrExist:
		return EEXIST
	case vfs.ErrBusy:
		return EBUSY
	case vfs.ErrInval:
		return EINVAL
	case vfs.ErrBadFD, vfs.ErrStale:
		return EBADF
	case vfs.ErrAgain:
		return EAGAIN
	case vfs.ErrNoIoctl:
		return ENOTTY
	case vfs.ErrIO:
		return EIO
	case vfs.ErrNoSpace:
		return ENOSPC
	case vfs.EOF:
		return 0
	}
	if e, ok := err.(Errno); ok {
		return e
	}
	return EIO
}

// absPath resolves a possibly-relative path against the process cwd.
func (p *Proc) absPath(path string) string {
	if len(path) > 0 && path[0] == '/' {
		return path
	}
	return p.CWD + "/" + path
}

// allocFD installs an open file at the lowest free descriptor. An injected
// failure behaves exactly like a full descriptor table; every caller already
// rolls back (closing the file, or unwinding a partially-built pipe).
func (p *Proc) allocFD(f *vfs.File) (int, Errno) {
	if siteFaultFD.Hit(p.Pid) {
		return 0, EMFILE
	}
	for fd := 0; fd < OpenFDLimit; fd++ {
		if _, used := p.fds[fd]; !used {
			p.fds[fd] = f
			return fd, 0
		}
	}
	return 0, EMFILE
}

// FD returns the open file for a descriptor (exported for /proc tools that
// inspect a process's open files).
func (p *Proc) FD(fd int) *vfs.File { return p.fds[fd] }

// FDs returns the descriptor table keys in use, in ascending order.
func (p *Proc) FDs() []int {
	var out []int
	for fd := range p.fds {
		out = append(out, fd)
	}
	sort.Ints(out)
	return out
}

// SetFD installs an open file at a descriptor (used by Spawn to wire
// standard descriptors).
func (p *Proc) SetFD(fd int, f *vfs.File) { p.fds[fd] = f }

func (p *Proc) getFD(fd int) (*vfs.File, Errno) {
	f, ok := p.fds[int(fd)]
	if !ok {
		return nil, EBADF
	}
	return f, 0
}

func sysOpen(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	path, e := k.copyinStr(l, l.sysArgs[0])
	if e != 0 {
		return rerr(e)
	}
	flags := int(l.sysArgs[1])
	if flags&(vfs.ORead|vfs.OWrite) == 0 {
		flags |= vfs.ORead
	}
	// The system call holds the global lock, so it opens beneath the
	// vfs.Client gateway, which would take it again.
	f, err := k.NS.Open(p.absPath(path), flags, p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	fd, e := p.allocFD(f)
	if e != 0 {
		f.Close()
		return rerr(e)
	}
	return ret(uint32(fd))
}

func sysCreat(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	path, e := k.copyinStr(l, l.sysArgs[0])
	if e != 0 {
		return rerr(e)
	}
	mode := uint16(l.sysArgs[1]) &^ p.Umask
	abs := p.absPath(path)
	if _, err := k.NS.Lookup(abs, p.Cred); err == vfs.ErrNotExist {
		dw, name, derr := k.NS.LookupDir(abs, p.Cred)
		if derr != nil {
			return rerr(mapErr(derr))
		}
		if _, cerr := dw.VCreate(name, mode, p.Cred); cerr != nil {
			return rerr(mapErr(cerr))
		}
	}
	f, err := k.NS.Open(abs, vfs.OWrite|vfs.OTrunc, p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	fd, e := p.allocFD(f)
	if e != 0 {
		f.Close()
		return rerr(e)
	}
	return ret(uint32(fd))
}

func sysClose(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	f, e := p.getFD(int(l.sysArgs[0]))
	if e != 0 {
		return rerr(e)
	}
	delete(p.fds, int(l.sysArgs[0]))
	f.Close()
	return ret(0)
}

func sysDup(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	f, e := p.getFD(int(l.sysArgs[0]))
	if e != 0 {
		return rerr(e)
	}
	f.IncRef()
	fd, e := p.allocFD(f)
	if e != 0 {
		f.Close()
		return rerr(e)
	}
	return ret(uint32(fd))
}

func sysRead(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	f, e := p.getFD(int(l.sysArgs[0]))
	if e != 0 {
		return rerr(e)
	}
	buf, n := l.sysArgs[1], int(l.sysArgs[2])
	if n < 0 {
		return rerr(EINVAL)
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	tmp := k.takeStage(n)
	defer k.putStage(tmp)
	got, err := f.Read(tmp)
	if err == vfs.ErrAgain {
		// Blocking read (a pipe with no data): sleep until a writer acts.
		if pe, ok := f.H.(*pipeEnd); ok {
			return rsleep(&pe.p.rq)
		}
		return rerr(EAGAIN)
	}
	if err != nil && err != vfs.EOF {
		return rerr(mapErr(err))
	}
	// The staging slice holds an earlier call's bytes past got: copy out
	// only what the handler filled.
	if got > 0 {
		if e := k.copyout(l, buf, tmp[:got]); e != 0 {
			return rerr(e)
		}
	}
	return ret(uint32(got))
}

func sysWrite(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	f, e := p.getFD(int(l.sysArgs[0]))
	if e != 0 {
		return rerr(e)
	}
	buf, n := l.sysArgs[1], int(l.sysArgs[2])
	if n < 0 {
		return rerr(EINVAL)
	}
	if n > 1<<20 {
		return rerr(EINVAL)
	}
	tmp := k.takeStage(n)
	defer k.putStage(tmp)
	if e := k.copyin(l, buf, tmp); e != 0 {
		return rerr(e)
	}
	got, err := f.Write(tmp)
	switch err {
	case nil:
		return ret(uint32(got))
	case vfs.ErrAgain:
		if pe, ok := f.H.(*pipeEnd); ok {
			return rsleep(&pe.p.wq)
		}
		return rerr(EAGAIN)
	case errPipeGone:
		// Write on a pipe with no one to read it.
		k.PostSignal(p, types.SIGPIPE)
		return rerr(EPIPE)
	}
	return rerr(mapErr(err))
}

// sysLseek moves a descriptor's offset. A SEEK_SET offset is an unsigned
// word, so a /proc as-file can be positioned at any address, 0x80000000
// and up included; SEEK_CUR and SEEK_END take a signed one.
func sysLseek(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	f, e := p.getFD(int(l.sysArgs[0]))
	if e != 0 {
		return rerr(e)
	}
	whence := int(l.sysArgs[2])
	off := int64(int32(l.sysArgs[1]))
	if whence == vfs.SeekSet {
		off = int64(l.sysArgs[1])
	}
	off, err := f.Seek(off, whence)
	if err != nil {
		return rerr(mapErr(err))
	}
	return ret(uint32(off))
}

func sysUnlink(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	path, e := k.copyinStr(l, l.sysArgs[0])
	if e != 0 {
		return rerr(e)
	}
	dw, name, err := k.NS.LookupDir(p.absPath(path), p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	if err := dw.VRemove(name, p.Cred); err != nil {
		return rerr(mapErr(err))
	}
	return ret(0)
}

// sysSync flushes every mounted file system with delayed writes; like the
// historical sync(2) it reports the first failure but attempts them all.
func sysSync(k *Kernel, l *LWP) sysResult {
	if err := k.NS.SyncAll(); err != nil {
		return rerr(mapErr(err))
	}
	return ret(0)
}

// sysFsync flushes the file system behind one descriptor. Handles of
// in-memory types don't implement the hook and succeed trivially — their
// writes were never delayed.
func sysFsync(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	f, e := p.getFD(int(l.sysArgs[0]))
	if e != 0 {
		return rerr(e)
	}
	if s, ok := f.H.(interface{ HSync() error }); ok {
		if err := s.HSync(); err != nil {
			return rerr(mapErr(err))
		}
	}
	return ret(0)
}

func sysChdir(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	path, e := k.copyinStr(l, l.sysArgs[0])
	if e != 0 {
		return rerr(e)
	}
	abs := vfs.Clean(p.absPath(path))
	vn, err := k.NS.Lookup(abs, p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	if _, ok := vn.(vfs.Dir); !ok {
		return rerr(ENOTDIR)
	}
	p.CWD = abs
	return ret(0)
}

func sysChmod(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	path, e := k.copyinStr(l, l.sysArgs[0])
	if e != 0 {
		return rerr(e)
	}
	vn, err := k.NS.Lookup(p.absPath(path), p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	attr, err := vn.VAttr()
	if err != nil {
		return rerr(mapErr(err))
	}
	if !p.Cred.IsSuper() && p.Cred.EUID != attr.UID {
		return rerr(EPERM)
	}
	type chmodder interface{ SetMode(uint16) }
	if c, ok := vn.(chmodder); ok {
		c.SetMode(uint16(l.sysArgs[1]) & 0o7777)
		return ret(0)
	}
	return rerr(ENOSYS)
}

func sysAccess(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	path, e := k.copyinStr(l, l.sysArgs[0])
	if e != 0 {
		return rerr(e)
	}
	vn, err := k.NS.Lookup(p.absPath(path), p.Cred)
	if err != nil {
		return rerr(mapErr(err))
	}
	attr, err := vn.VAttr()
	if err != nil {
		return rerr(mapErr(err))
	}
	// access(2) checks with the real ids.
	realCred := p.Cred
	realCred.EUID, realCred.EGID = realCred.RUID, realCred.RGID
	if err := vfs.CheckAccess(attr, realCred, uint16(l.sysArgs[1])&7); err != nil {
		return rerr(EACCES)
	}
	return ret(0)
}

func sysIoctl(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	if _, e := p.getFD(int(l.sysArgs[0])); e != 0 {
		return rerr(e)
	}
	// User-level programs in the simulation have no ioctl-capable devices.
	return rerr(ENOTTY)
}
