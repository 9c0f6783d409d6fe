// Package memfs is a conventional file system type for the simulated system:
// a hierarchical in-memory store of directories and regular files with full
// UNIX attributes (including the set-id bits honored by exec). It hosts the
// executables, shared libraries and data files that the process model runs;
// its regular files also implement mem.Object so they can be mapped into
// address spaces — which is what makes text/data mappings, PIOCOPENM, and
// copy-on-write breakpoint isolation work end to end.
package memfs

import (
	"sort"
	"sync"

	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vfs"
)

// FS is one memfs instance.
type FS struct {
	root *node
	now  func() int64
}

// New creates a file system whose timestamps come from now (typically the
// simulated kernel clock).
func New(now func() int64) *FS {
	if now == nil {
		now = func() int64 { return 0 }
	}
	fs := &FS{now: now}
	fs.root = &node{
		fs:   fs,
		path: "/",
		attr: vfs.Attr{Type: vfs.VDIR, Mode: 0o755, Nlink: 2},
	}
	fs.root.children = map[string]*node{}
	return fs
}

// Root returns the root directory vnode.
func (fs *FS) Root() vfs.Dir { return fs.root }

type node struct {
	fs   *FS
	path string

	mu       sync.Mutex
	attr     vfs.Attr
	data     []byte           // regular files; zeroed slack past the end (withSlack)
	children map[string]*node // directories

	// rev counts content changes to data (in-place or reallocating), and
	// exposed records that ObjBytes handed data to a frame cache. Together
	// they back the mem.RevBytes contract that lets mapped pages of this
	// file be frame-cached by the vCPU fast path: once the file is exposed,
	// every change also bumps the mem epoch (changed), so a write to a
	// mapped file is visible to a running process exactly as it is on the
	// ReadObj slow path. A file never mapped never bumps it.
	rev     uint64
	exposed bool
}

// changed notes a content or size change of data. The caller holds n.mu
// and has made the change.
func (n *node) changed() {
	n.rev++
	if n.exposed {
		mem.BumpEpoch()
	}
}

// --- vfs.Vnode ---

// VAttr implements vfs.Vnode.
func (n *node) VAttr() (vfs.Attr, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a := n.attr
	a.Size = int64(len(n.data))
	if n.attr.Type == vfs.VDIR {
		a.Size = int64(len(n.children))
	}
	return a, nil
}

// VOpen implements vfs.Vnode.
func (n *node) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	n.mu.Lock()
	isDir := n.attr.Type == vfs.VDIR
	attr := n.attr
	n.mu.Unlock()
	if isDir && flags&vfs.OWrite != 0 {
		return nil, vfs.ErrIsDir
	}
	var want uint16
	if flags&vfs.ORead != 0 {
		want |= 4
	}
	if flags&vfs.OWrite != 0 {
		want |= 2
	}
	if err := vfs.CheckAccess(attr, c, want); err != nil {
		return nil, err
	}
	if flags&vfs.OTrunc != 0 && !isDir {
		n.mu.Lock()
		n.data = nil
		n.changed()
		n.attr.MTime = n.fs.now()
		n.mu.Unlock()
	}
	return &fileHandle{n: n}, nil
}

// --- vfs.Dir ---

// VLookup implements vfs.Dir.
func (n *node) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.attr.Type != vfs.VDIR {
		return nil, vfs.ErrNotDir
	}
	child, ok := n.children[name]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	return child, nil
}

// VReadDir implements vfs.Dir.
func (n *node) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.attr.Type != vfs.VDIR {
		return nil, vfs.ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]vfs.Dirent, 0, len(names))
	for _, name := range names {
		a, _ := n.children[name].VAttr()
		out = append(out, vfs.Dirent{Name: name, Attr: a})
	}
	return out, nil
}

// --- vfs.DirWriter ---

// VCreate implements vfs.DirWriter.
func (n *node) VCreate(name string, mode uint16, c types.Cred) (vfs.Vnode, error) {
	return n.addChild(name, mode, c, vfs.VREG)
}

// VMkdir implements vfs.DirWriter.
func (n *node) VMkdir(name string, mode uint16, c types.Cred) (vfs.Dir, error) {
	child, err := n.addChild(name, mode, c, vfs.VDIR)
	if err != nil {
		return nil, err
	}
	return child.(*node), nil
}

func (n *node) addChild(name string, mode uint16, c types.Cred, typ vfs.VType) (vfs.Vnode, error) {
	if name == "" || name == "." || name == ".." {
		return nil, vfs.ErrInval
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.attr.Type != vfs.VDIR {
		return nil, vfs.ErrNotDir
	}
	if err := vfs.CheckAccess(n.attr, c, 2); err != nil {
		return nil, err
	}
	if _, dup := n.children[name]; dup {
		return nil, vfs.ErrExist
	}
	// The node-allocation check runs after validation so an injected ENOSPC
	// reports a full file system, not a malformed request, and before the
	// child exists so nothing dangles.
	if siteFaultCreate.Hit(0) {
		return nil, vfs.ErrNoSpace
	}
	child := &node{
		fs:   n.fs,
		path: joinPath(n.path, name),
		attr: vfs.Attr{Type: typ, Mode: mode, UID: c.EUID, GID: c.EGID, MTime: n.fs.now(), Nlink: 1},
	}
	if typ == vfs.VDIR {
		child.children = map[string]*node{}
		child.attr.Nlink = 2
	}
	n.children[name] = child
	n.attr.MTime = n.fs.now()
	return child, nil
}

// VRemove implements vfs.DirWriter.
func (n *node) VRemove(name string, c types.Cred) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.attr.Type != vfs.VDIR {
		return vfs.ErrNotDir
	}
	if err := vfs.CheckAccess(n.attr, c, 2); err != nil {
		return err
	}
	child, ok := n.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	child.mu.Lock()
	nonEmptyDir := child.attr.Type == vfs.VDIR && len(child.children) > 0
	child.mu.Unlock()
	if nonEmptyDir {
		return vfs.ErrBusy
	}
	delete(n.children, name)
	n.attr.MTime = n.fs.now()
	return nil
}

// SetMode changes the permission bits; the kernel's chmod(2) reaches it
// through an interface assertion after its ownership check.
func (n *node) SetMode(mode uint16) {
	n.mu.Lock()
	n.attr.Mode = mode
	n.attr.MTime = n.fs.now()
	n.mu.Unlock()
}

// --- mem.Object (regular files can be mapped) ---

// ObjName implements mem.Object.
func (n *node) ObjName() string { return n.path }

// ObjSize implements mem.Object.
func (n *node) ObjSize() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return int64(len(n.data))
}

// ReadObj implements mem.Object.
func (n *node) ReadObj(p []byte, off int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range p {
		p[i] = 0
	}
	if off < int64(len(n.data)) {
		copy(p, n.data[off:])
	}
}

// MaxFileSize caps the size of a memfs file: a write whose end would pass
// it fails with vfs.ErrNoSpace, as blockfs's writes do at its own cap. A
// file lives in host memory, so without the cap one byte written at a high
// offset would allocate the whole file. The largest file the tests and
// benchmarks create is a core file of about 45 KB.
const MaxFileSize = 1 << 20

// WriteObj implements mem.Object: shared mappings write through.
func (n *node) WriteObj(p []byte, off int64) error {
	if off < 0 {
		return vfs.ErrInval
	}
	if off > MaxFileSize-int64(len(p)) {
		return vfs.ErrNoSpace
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(n.data)) {
		grown := withSlack(end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[off:], p)
	n.changed()
	n.attr.MTime = n.fs.now()
	return nil
}

// slack is the zeroed capacity a non-empty file keeps past its end: one
// page, so the page straddling the end of a mapped file is an alias of the
// file's storage that every mapping shares (the mem.RevBytes contract),
// not a padded copy per mapping.
const slack = mem.DefaultPageSize

// withSlack returns a zeroed slice of length n with slack spare capacity,
// or nil for an empty file.
func withSlack(n int64) []byte {
	if n == 0 {
		return nil
	}
	return make([]byte, n, n+slack)
}

// ObjBytes implements mem.RevBytes: the current file contents plus their
// revision. It exposes the file, so every later change bumps the mem
// epoch. Every write that grows the file reallocates it, so the capacity
// past the end is always slack and always zero.
func (n *node) ObjBytes() ([]byte, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.exposed = true
	return n.data, n.rev
}

var (
	_ vfs.DirWriter = (*node)(nil)
	_ mem.Object    = (*node)(nil)
	_ mem.RevBytes  = (*node)(nil)
)

// fileHandle is the open state of a regular file (or read-only directory).
type fileHandle struct {
	n *node
}

// HRead implements vfs.Handle.
func (h *fileHandle) HRead(p []byte, off int64) (int, error) {
	if siteFaultRead.Hit(0) {
		return 0, vfs.ErrIO
	}
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	if h.n.attr.Type == vfs.VDIR {
		return 0, vfs.ErrIsDir
	}
	if off >= int64(len(h.n.data)) {
		return 0, vfs.EOF
	}
	n := copy(p, h.n.data[off:])
	return n, nil
}

// HWrite implements vfs.Handle.
func (h *fileHandle) HWrite(p []byte, off int64) (int, error) {
	if siteFaultWrite.Hit(0) {
		return 0, vfs.ErrIO
	}
	if err := h.n.WriteObj(p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// HIoctl implements vfs.Handle; regular files have no control operations.
func (h *fileHandle) HIoctl(cmd int, arg interface{}) error { return vfs.ErrNoIoctl }

// HClose implements vfs.Handle.
func (h *fileHandle) HClose() error { return nil }

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// --- administrative helpers (used to populate the system at boot) ---

// MkdirAll creates a directory path (and parents) with the given mode, owned
// by root. Existing directories are left alone.
func (fs *FS) MkdirAll(path string, mode uint16) error {
	cur := fs.root
	for _, name := range vfs.Split(path) {
		cur.mu.Lock()
		child, ok := cur.children[name]
		cur.mu.Unlock()
		if !ok {
			vn, err := cur.VMkdir(name, mode, types.RootCred())
			if err != nil {
				return err
			}
			child = vn.(*node)
		}
		if child.attr.Type != vfs.VDIR {
			return vfs.ErrNotDir
		}
		cur = child
	}
	return nil
}

// WriteFile installs a file at path with the given contents, mode and owner,
// creating parent directories as needed and replacing any existing file.
func (fs *FS) WriteFile(path string, data []byte, mode uint16, uid, gid int) error {
	parts := vfs.Split(path)
	if len(parts) == 0 {
		return vfs.ErrInval
	}
	dir := "/"
	for _, p := range parts[:len(parts)-1] {
		dir = joinPath(dir, p)
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parent, err := fs.lookupNode(dir)
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	parent.mu.Lock()
	child, ok := parent.children[name]
	parent.mu.Unlock()
	if !ok {
		vn, err := parent.addChild(name, mode, types.RootCred(), vfs.VREG)
		if err != nil {
			return err
		}
		child = vn.(*node)
	}
	child.mu.Lock()
	child.data = withSlack(int64(len(data)))
	copy(child.data, data)
	child.changed()
	child.attr.Mode = mode
	child.attr.UID = uid
	child.attr.GID = gid
	child.attr.MTime = fs.now()
	child.mu.Unlock()
	return nil
}

// Chmod changes a file's mode bits.
func (fs *FS) Chmod(path string, mode uint16) error {
	n, err := fs.lookupNode(path)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.attr.Mode = mode
	n.mu.Unlock()
	return nil
}

// Chown changes a file's owner and group.
func (fs *FS) Chown(path string, uid, gid int) error {
	n, err := fs.lookupNode(path)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.attr.UID = uid
	n.attr.GID = gid
	n.mu.Unlock()
	return nil
}

func (fs *FS) lookupNode(path string) (*node, error) {
	cur := fs.root
	for _, name := range vfs.Split(path) {
		cur.mu.Lock()
		child, ok := cur.children[name]
		cur.mu.Unlock()
		if !ok {
			return nil, vfs.ErrNotExist
		}
		cur = child
	}
	return cur, nil
}

// Object returns the mem.Object for a regular file path, for mapping.
func (fs *FS) Object(path string) (mem.Object, error) {
	n, err := fs.lookupNode(path)
	if err != nil {
		return nil, err
	}
	if n.attr.Type != vfs.VREG {
		return nil, vfs.ErrIsDir
	}
	return n, nil
}
