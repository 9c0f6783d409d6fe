// Package vfs is the Virtual File System architecture of the simulated
// system: the clean separation of file system code into generic
// (file-system-independent) and specific (file-system-dependent) pieces with
// a well-defined but narrow interface between them. As in SVR4, the
// fundamental data structure manipulated by the generic code is the vnode;
// the developer of a file system type provides the code that implements the
// necessary set of vnode operations for that type. Within this framework the
// construction of the "fantasy world" — the illusion that processes are
// actually files — is straightforward, and any resource can be made to
// appear within the file system name space if it makes sense to view it that
// way.
package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/types"
)

// VType is a vnode type.
type VType int

// Vnode types.
const (
	VREG  VType = iota // regular file
	VDIR               // directory
	VPROC              // process file (the /proc fantasy world)
	VFIFO              // pipe
)

// Mode permission bits (octal), plus the set-id bits honored by exec.
const (
	ModeSetUID = 0o4000
	ModeSetGID = 0o2000
)

// Attr is the public attribute data of a vnode — the information maintained
// by the upper level or that does not change over the life of the file.
type Attr struct {
	Type  VType
	Mode  uint16 // permission bits incl. set-id bits
	UID   int
	GID   int
	Size  int64
	MTime int64 // modification time (simulated clock ticks)
	Nlink int
}

// IsSetID reports whether the file has the setuid or setgid bit.
func (a Attr) IsSetID() bool { return a.Mode&(ModeSetUID|ModeSetGID) != 0 }

// Open flags.
const (
	ORead  = 1 << iota // open for reading
	OWrite             // open for writing
	OExcl              // exclusive open (for /proc: exclusive write access)
	OCreat             // create if missing
	OTrunc             // truncate to zero length
)

// Poll event mask bits.
const (
	PollIn  = 1 << iota // readable
	PollOut             // writable
	PollPri             // exceptional condition (a /proc stop is one)
	// PollErr reports that polling itself failed — e.g. the transport under
	// a remote handle died. Like POLLERR it is reported regardless of the
	// requested mask; a poll loop that sees it must stop waiting, because
	// no event will ever arrive.
	PollErr
)

// Common error values, the moral equivalents of the UNIX errnos.
var (
	ErrNotExist = errors.New("no such file or directory")          // ENOENT
	ErrPerm     = errors.New("permission denied")                  // EACCES
	ErrNotDir   = errors.New("not a directory")                    // ENOTDIR
	ErrIsDir    = errors.New("is a directory")                     // EISDIR
	ErrExist    = errors.New("file exists")                        // EEXIST
	ErrBusy     = errors.New("device busy")                        // EBUSY
	ErrInval    = errors.New("invalid argument")                   // EINVAL
	ErrNotSup   = errors.New("operation not supported by fs type") // ENOSYS
	ErrBadFD    = errors.New("bad file descriptor")                // EBADF
	ErrAgain    = errors.New("resource temporarily unavailable")   // EAGAIN
	ErrNoIoctl  = errors.New("inappropriate ioctl for device")     // ENOTTY

	// ErrIO (EIO) reports that a device operation failed underneath the
	// file system — a buffer-cache fill, a write-back, a journal record.
	// File system types must return the sentinel itself (or wrap it with
	// %w) rather than a private error: the kernel's errno mapping, the
	// fault-storm matchers, and the rfs wire codec all branch on it with
	// errors.Is, and the rfs protocol carries it as a dedicated code so the
	// identity survives a round trip through a remote mount.
	ErrIO = errors.New("I/O error") // EIO

	// ErrNoSpace (ENOSPC) reports resource exhaustion inside a file system
	// type: no free inode, no free block, a file at its maximum size, or an
	// injected allocation failure (memfs.create, blockfs zone allocation).
	// Like ErrIO it is an errors.Is identity preserved across the rfs wire
	// codec in both directions, so a remote client can distinguish a full
	// file system from a broken one.
	ErrNoSpace = errors.New("no space left on device") // ENOSPC

	ErrStale     = errors.New("stale /proc file descriptor") // the set-id invalidation
	ErrWouldDead = errors.New("poll would deadlock: nothing runnable")
)

// Vnode is the system's internal representation of a file; it provides the
// handle by which file manipulations are performed.
type Vnode interface {
	// VAttr returns the vnode attributes.
	VAttr() (Attr, error)
	// VOpen prepares the vnode for I/O, performing type-specific permission
	// checks, and returns a Handle carrying the open state.
	VOpen(flags int, c types.Cred) (Handle, error)
}

// Dir is a vnode that supports name lookup — a directory.
type Dir interface {
	Vnode
	// VLookup resolves one path component.
	VLookup(name string, c types.Cred) (Vnode, error)
	// VReadDir lists the directory.
	VReadDir(c types.Cred) ([]Dirent, error)
}

// DirWriter is a directory that supports creating and removing entries.
type DirWriter interface {
	Dir
	VCreate(name string, mode uint16, c types.Cred) (Vnode, error)
	VMkdir(name string, mode uint16, c types.Cred) (Dir, error)
	VRemove(name string, c types.Cred) error
}

// Dirent is one directory entry.
type Dirent struct {
	Name string
	Attr Attr
}

// Handle is the per-open state of a vnode, through which I/O and control
// operations flow.
//
// HRead and HWrite never keep p past the call, and HRead fills p[:n] for
// the n it returns. The kernel's read(2) and write(2) pass a staging slice
// they reuse from call to call, which holds an earlier call's bytes, and
// rely on both.
type Handle interface {
	// HRead reads at an absolute offset into p[:n], returning n.
	HRead(p []byte, off int64) (int, error)
	// HWrite writes p at an absolute offset.
	HWrite(p []byte, off int64) (int, error)
	// HIoctl performs a control operation.
	HIoctl(cmd int, arg interface{}) error
	// HClose releases the open state.
	HClose() error
}

// Poller is implemented by handles that support poll(2). The /proc polling
// extension proposed in the paper hangs off this.
type Poller interface {
	// HPoll returns the ready events among those requested.
	HPoll(mask int) int
}

// CheckAccess implements the classic UNIX permission check of want
// (a bitmask of 4=read, 2=write, 1=exec) against the attribute bits.
func CheckAccess(a Attr, c types.Cred, want uint16) error {
	if c.IsSuper() {
		return nil
	}
	var perm uint16
	switch {
	case c.EUID == a.UID:
		perm = a.Mode >> 6
	case c.InGroup(a.GID):
		perm = a.Mode >> 3
	default:
		perm = a.Mode
	}
	if want&^(perm&7) != 0 {
		return ErrPerm
	}
	return nil
}

// NS is a name space: a root directory plus a mount table. Mounting a file
// system type's root vnode over a path splices it into the name space, which
// is how /proc appears alongside conventional file systems.
//
// A mount may carry a lock (MountLocked): the lock that every operation on
// the mounted file system's vnodes and handles expects its caller to hold on
// entry — the vnode-interface rule that each operation states the locks held
// when it is called rather than taking them itself. The NS methods are the
// lock-free path beneath Client, for callers that already hold the lock
// (the kernel's own system calls); Client and the Files it opens are the
// gateway that takes it for everyone else.
type NS struct {
	root   Dir
	mounts map[string]Vnode
	locks  map[string]sync.Locker // the locked subset of mounts
}

// NewNS returns a name space rooted at root.
func NewNS(root Dir) *NS {
	return &NS{root: root, mounts: make(map[string]Vnode), locks: make(map[string]sync.Locker)}
}

// Mount splices a file system root over path.
func (ns *NS) Mount(path string, root Vnode) error { return ns.MountLocked(path, root, nil) }

// MountLocked splices a file system root over path whose vnode operations
// run with lock held by their caller. A nil lock is a plain Mount.
func (ns *NS) MountLocked(path string, root Vnode, lock sync.Locker) error {
	clean := Clean(path)
	if _, dup := ns.mounts[clean]; dup {
		return ErrBusy
	}
	ns.mounts[clean] = root
	if lock != nil {
		ns.locks[clean] = lock
	}
	return nil
}

// gate is one Client operation's hold on a locked mount: the walk takes the
// lock on entering the mount, the operation releases it when done. A nil
// gate is the lock-free path. One lock is held at a time: a locked mount
// beneath another is covered by the outer lock.
type gate struct{ lk sync.Locker }

func (g *gate) enter(lk sync.Locker) {
	if g != nil && lk != nil && g.lk == nil {
		lk.Lock()
		g.lk = lk
	}
}

func (g *gate) exit() {
	if g.lk != nil {
		g.lk.Unlock()
	}
}

// Syncer is implemented by the root vnode of file system types with delayed
// writes: VSync flushes everything the type has buffered to stable storage.
// In-memory types (memfs, /proc) simply don't implement it.
type Syncer interface {
	VSync() error
}

// SyncAll flushes every mounted file system that supports it, in mount-path
// order (sorted, so the device-write sequence is deterministic). All mounts
// are attempted even after a failure; the first error is returned — the
// sync(2) contract of scheduling everything and reporting what broke.
func (ns *NS) SyncAll() error {
	paths := make([]string, 0, len(ns.mounts))
	for p := range ns.mounts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var first error
	for _, p := range paths {
		if s, ok := ns.mounts[p].(Syncer); ok {
			if err := s.VSync(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Clean normalizes a path: absolute, no trailing slash, no empty components.
func Clean(path string) string {
	parts := Split(path)
	return "/" + strings.Join(parts, "/")
}

// Split breaks a path into components, ignoring empty ones and ".".
func Split(path string) []string {
	var out []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return out
}

// Lookup resolves an absolute path to a vnode, honoring mounts. Directory
// search permission is required at each step.
func (ns *NS) Lookup(path string, c types.Cred) (Vnode, error) { return ns.lookup(path, c, nil) }

func (ns *NS) lookup(path string, c types.Cred, g *gate) (Vnode, error) {
	var cur Vnode = ns.root
	if m, ok := ns.mounts["/"]; ok {
		cur = m
		g.enter(ns.locks["/"])
	}
	walked := ""
	for _, name := range Split(path) {
		dir, ok := cur.(Dir)
		if !ok {
			return nil, ErrNotDir
		}
		attr, err := dir.VAttr()
		if err != nil {
			return nil, err
		}
		if err := CheckAccess(attr, c, 1); err != nil {
			return nil, err
		}
		next, err := dir.VLookup(name, c)
		if err != nil {
			return nil, err
		}
		walked += "/" + name
		if m, ok := ns.mounts[walked]; ok {
			next = m
			g.enter(ns.locks[walked])
		}
		cur = next
	}
	return cur, nil
}

// LookupDir resolves the parent directory of path and returns it with the
// final component, for create/remove operations.
func (ns *NS) LookupDir(path string, c types.Cred) (DirWriter, string, error) {
	return ns.lookupDir(path, c, nil)
}

func (ns *NS) lookupDir(path string, c types.Cred, g *gate) (DirWriter, string, error) {
	parts := Split(path)
	if len(parts) == 0 {
		return nil, "", ErrInval
	}
	parent := "/" + strings.Join(parts[:len(parts)-1], "/")
	vn, err := ns.lookup(parent, c, g)
	if err != nil {
		return nil, "", err
	}
	dw, ok := vn.(DirWriter)
	if !ok {
		return nil, "", ErrNotSup
	}
	return dw, parts[len(parts)-1], nil
}

// Open opens a path (creating it first under OCreat) on the lock-free path:
// the caller holds the lock of any locked mount the path reaches, and so
// does every caller of the returned File's methods.
func (ns *NS) Open(path string, flags int, c types.Cred) (*File, error) {
	return ns.open(path, flags, c, nil)
}

func (ns *NS) open(path string, flags int, c types.Cred, g *gate) (*File, error) {
	if flags&OCreat != 0 {
		if _, err := ns.lookup(path, c, g); err == ErrNotExist {
			dw, name, derr := ns.lookupDir(path, c, g)
			if derr != nil {
				return nil, derr
			}
			if _, cerr := dw.VCreate(name, 0o644, c); cerr != nil {
				return nil, cerr
			}
		}
	}
	vn, err := ns.lookup(path, c, g)
	if err != nil {
		return nil, err
	}
	h, err := vn.VOpen(flags, c)
	if err != nil {
		return nil, err
	}
	f := &File{VN: vn, H: h, Flags: flags}
	if g != nil {
		f.lock = g.lk
	}
	return f, nil
}

// File is an open file description: a vnode, its open handle, the current
// offset and the open flags. It is shared by user processes (through their
// file descriptor tables) and by controlling programs.
type File struct {
	VN     Vnode
	H      Handle
	Flags  int
	Offset int64
	closed bool
	extra  int         // extra references beyond the first (fork/dup sharing)
	lock   sync.Locker // a locked mount's lock, held around every handle call
}

// enter and leave hold the File's mount lock, if any, around a call into
// its vnode or handle.
func (f *File) enter() {
	if f.lock != nil {
		f.lock.Lock()
	}
}

func (f *File) leave() {
	if f.lock != nil {
		f.lock.Unlock()
	}
}

// IncRef adds a reference to the open file description; fork(2) and dup(2)
// share descriptions rather than duplicating them, so the offset is shared
// and the handle is closed only on the last close.
func (f *File) IncRef() { f.extra++ }

// Read reads sequentially from the current offset.
func (f *File) Read(p []byte) (int, error) {
	if f.closed || f.Flags&ORead == 0 {
		return 0, ErrBadFD
	}
	f.enter()
	defer f.leave()
	n, err := f.H.HRead(p, f.Offset)
	f.Offset += int64(n)
	return n, err
}

// Write writes sequentially at the current offset.
func (f *File) Write(p []byte) (int, error) {
	if f.closed || f.Flags&OWrite == 0 {
		return 0, ErrBadFD
	}
	f.enter()
	defer f.leave()
	n, err := f.H.HWrite(p, f.Offset)
	f.Offset += int64(n)
	return n, err
}

// Pread reads at an absolute offset without moving the file offset. A
// negative offset is ErrInval: no handle is asked to read before byte 0.
func (f *File) Pread(p []byte, off int64) (int, error) {
	if f.closed || f.Flags&ORead == 0 {
		return 0, ErrBadFD
	}
	if off < 0 {
		return 0, ErrInval
	}
	f.enter()
	defer f.leave()
	return f.H.HRead(p, off)
}

// Pwrite writes at an absolute offset without moving the file offset. A
// negative offset is ErrInval.
func (f *File) Pwrite(p []byte, off int64) (int, error) {
	if f.closed || f.Flags&OWrite == 0 {
		return 0, ErrBadFD
	}
	if off < 0 {
		return 0, ErrInval
	}
	f.enter()
	defer f.leave()
	return f.H.HWrite(p, off)
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions the offset; applying lseek to position the file at the
// virtual address of interest is how /proc address-space I/O is addressed.
// As in SVR4 lseek, a negative result is ErrInval and leaves the offset
// where it was, so Read and Write never see a negative offset.
func (f *File) Seek(off int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrBadFD
	}
	switch whence {
	case SeekSet:
	case SeekCur:
		off += f.Offset
	case SeekEnd:
		f.enter()
		attr, err := f.VN.VAttr()
		f.leave()
		if err != nil {
			return 0, err
		}
		off += attr.Size
	default:
		return 0, ErrInval
	}
	if off < 0 {
		return 0, ErrInval
	}
	f.Offset = off
	return off, nil
}

// Ioctl performs a control operation on the open file.
func (f *File) Ioctl(cmd int, arg interface{}) error {
	if f.closed {
		return ErrBadFD
	}
	f.enter()
	defer f.leave()
	return f.H.HIoctl(cmd, arg)
}

// Poll returns the ready events among mask, or 0 for handles that do not
// support polling.
func (f *File) Poll(mask int) int {
	if f.closed {
		return 0
	}
	if p, ok := f.H.(Poller); ok {
		f.enter()
		defer f.leave()
		return p.HPoll(mask)
	}
	return 0
}

// Close drops one reference to the open file; the handle is released when
// the last reference is closed. Closing an already-closed file returns
// ErrBadFD.
func (f *File) Close() error {
	if f.closed {
		return ErrBadFD
	}
	if f.extra > 0 {
		f.extra--
		return nil
	}
	f.closed = true
	f.enter()
	defer f.leave()
	return f.H.HClose()
}

// Closed reports whether Close has been called.
func (f *File) Closed() bool { return f.closed }

// FileState is the mutable state of one open file description, captured
// for whole-kernel checkpoints: the shared offset, the closed flag, the
// extra-reference count from fork/dup sharing, and any handle-private
// state the handle chose to expose via HandleSnapshotter.
type FileState struct {
	Offset int64
	Closed bool
	Extra  int
	Handle any
}

// HandleSnapshotter is optionally implemented by handles that carry
// mutable per-open state beyond the File's own fields — a closed flag, a
// cached snapshot buffer. Handles whose state is fixed at open time (the
// common case) need not implement it.
type HandleSnapshotter interface {
	// HSaveState returns an opaque deep copy of the handle's mutable state.
	HSaveState() any
	// HLoadState restores state previously returned by HSaveState.
	HLoadState(st any)
}

// SaveState captures the description's mutable state. Checkpoints restore
// into the same File object (pointer identity is what fork/dup sharing
// hangs off), so only the mutable fields are recorded.
func (f *File) SaveState() FileState {
	st := FileState{Offset: f.Offset, Closed: f.closed, Extra: f.extra}
	if hs, ok := f.H.(HandleSnapshotter); ok {
		st.Handle = hs.HSaveState()
	}
	return st
}

// LoadState restores state captured by SaveState into this File.
func (f *File) LoadState(st FileState) {
	f.Offset, f.closed, f.extra = st.Offset, st.Closed, st.Extra
	if hs, ok := f.H.(HandleSnapshotter); ok {
		hs.HLoadState(st.Handle)
	}
}

// Client is a controlling program's view of a name space: a credential plus
// path-based convenience operations. Debuggers, ps and truss act through a
// Client exactly as user-level SVR4 programs act through the system call
// interface. Client is the gateway to locked mounts: each operation, and
// each method of a File it opens, holds the lock of the mount it reaches.
type Client struct {
	NS   *NS
	Cred types.Cred
}

// Open opens a path.
func (cl *Client) Open(path string, flags int) (*File, error) {
	var g gate
	defer g.exit()
	return cl.NS.open(path, flags, cl.Cred, &g)
}

// Stat returns the attributes of a path.
func (cl *Client) Stat(path string) (Attr, error) {
	var g gate
	defer g.exit()
	vn, err := cl.NS.lookup(path, cl.Cred, &g)
	if err != nil {
		return Attr{}, err
	}
	return vn.VAttr()
}

// ReadDir lists a directory path.
func (cl *Client) ReadDir(path string) ([]Dirent, error) {
	var g gate
	defer g.exit()
	vn, err := cl.NS.lookup(path, cl.Cred, &g)
	if err != nil {
		return nil, err
	}
	dir, ok := vn.(Dir)
	if !ok {
		return nil, ErrNotDir
	}
	attr, err := dir.VAttr()
	if err != nil {
		return nil, err
	}
	if err := CheckAccess(attr, cl.Cred, 4); err != nil {
		return nil, err
	}
	return dir.VReadDir(cl.Cred)
}

// ReadFile reads an entire regular file.
func (cl *Client) ReadFile(path string) ([]byte, error) {
	f, err := cl.Open(path, ORead)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, 8192)
	for {
		n, err := f.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil || n == 0 {
			if err != nil && err.Error() == "EOF" {
				err = nil
			}
			return out, err
		}
	}
}

// Poll waits until one of the files reports a ready event in mask, calling
// step to advance the simulation between checks. It returns the index of the
// first ready file and its events. If nothing is ready and step reports that
// no progress is possible, ErrWouldDead is returned — the simulated
// equivalent of a poll that would block forever.
func Poll(files []*File, mask int, step func() bool) (int, int, error) {
	for {
		for i, f := range files {
			if r := f.Poll(mask); r != 0 {
				return i, r, nil
			}
		}
		if !step() {
			return -1, 0, ErrWouldDead
		}
	}
}

// FmtMode renders permission bits in ls -l style (without the type letter).
func FmtMode(mode uint16) string {
	s := []byte("rwxrwxrwx")
	for i := 0; i < 9; i++ {
		if mode&(1<<uint(8-i)) == 0 {
			s[i] = '-'
		}
	}
	if mode&ModeSetUID != 0 {
		s[2] = 's'
	}
	if mode&ModeSetGID != 0 {
		s[5] = 's'
	}
	return string(s)
}

// EOF is the error returned by sequential reads at end of file.
var EOF = errors.New("EOF")

// Errorf wraps fmt.Errorf so fs implementations need not import fmt for
// one-off errors.
func Errorf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}
