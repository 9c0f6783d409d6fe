package vfs_test

import (
	"testing"

	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

func clientFixture() (*memfs.FS, *vfs.Client) {
	fs := memfs.New(nil)
	ns := vfs.NewNS(fs.Root())
	return fs, &vfs.Client{NS: ns, Cred: types.RootCred()}
}

func TestClientOpenCreate(t *testing.T) {
	fs, cl := clientFixture()
	fs.MkdirAll("/d", 0o777)
	f, err := cl.Open("/d/new", vfs.OWrite|vfs.OCreat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := cl.ReadFile("/d/new")
	if err != nil || string(data) != "abc" {
		t.Fatalf("%q %v", data, err)
	}
	// OCreat on an existing file opens it.
	g, err := cl.Open("/d/new", vfs.ORead|vfs.OCreat)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	// OCreat in a missing directory propagates the lookup error.
	if _, err := cl.Open("/nodir/x", vfs.OWrite|vfs.OCreat); err == nil {
		t.Fatal("create in missing dir should fail")
	}
}

func TestClientReadFileLarge(t *testing.T) {
	fs, cl := clientFixture()
	big := make([]byte, 40000)
	for i := range big {
		big[i] = byte(i)
	}
	fs.WriteFile("/big", big, 0o644, 0, 0)
	got, err := cl.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestClientReadDirErrors(t *testing.T) {
	fs, cl := clientFixture()
	fs.WriteFile("/f", []byte("x"), 0o644, 0, 0)
	if _, err := cl.ReadDir("/f"); err != vfs.ErrNotDir {
		t.Fatalf("readdir of file: %v", err)
	}
	if _, err := cl.ReadDir("/missing"); err != vfs.ErrNotExist {
		t.Fatalf("readdir of missing: %v", err)
	}
	// ReadDir requires read permission on the directory.
	fs.MkdirAll("/locked", 0o311)
	user := &vfs.Client{NS: cl.NS, Cred: types.UserCred(5, 5)}
	if _, err := user.ReadDir("/locked"); err != vfs.ErrPerm {
		t.Fatalf("readdir without r: %v", err)
	}
}

func TestLookupThroughFileFails(t *testing.T) {
	fs, cl := clientFixture()
	fs.WriteFile("/f", []byte("x"), 0o644, 0, 0)
	if _, err := cl.Stat("/f/sub"); err != vfs.ErrNotDir {
		t.Fatalf("lookup through file: %v", err)
	}
}

func TestLookupDirOfRootComponent(t *testing.T) {
	_, cl := clientFixture()
	if _, _, err := cl.NS.LookupDir("/", cl.Cred); err != vfs.ErrInval {
		t.Fatalf("LookupDir of /: %v", err)
	}
	dw, name, err := cl.NS.LookupDir("/top", cl.Cred)
	if err != nil || name != "top" || dw == nil {
		t.Fatalf("%v %q", err, name)
	}
}

func TestMountSplicesSubtree(t *testing.T) {
	fs, cl := clientFixture()
	fs.MkdirAll("/mnt", 0o755)
	other := memfs.New(nil)
	other.WriteFile("/inside", []byte("mounted"), 0o644, 0, 0)
	if err := cl.NS.Mount("/mnt", other.Root()); err != nil {
		t.Fatal(err)
	}
	data, err := cl.ReadFile("/mnt/inside")
	if err != nil || string(data) != "mounted" {
		t.Fatalf("%q %v", data, err)
	}
	// The covered directory's own content is hidden.
	fs.WriteFile("/mnt/hidden", []byte("x"), 0o644, 0, 0)
	if _, err := cl.Stat("/mnt/hidden"); err != vfs.ErrNotExist {
		t.Fatalf("covered entry visible: %v", err)
	}
}

func TestRootMountOverride(t *testing.T) {
	_, cl := clientFixture()
	other := memfs.New(nil)
	other.WriteFile("/only", nil, 0o644, 0, 0)
	if err := cl.NS.Mount("/", other.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/only"); err != nil {
		t.Fatalf("root mount not honored: %v", err)
	}
}

func TestSeekEndUsesAttr(t *testing.T) {
	fs, cl := clientFixture()
	fs.WriteFile("/f", []byte("0123456789"), 0o644, 0, 0)
	f, _ := cl.Open("/f", vfs.ORead)
	defer f.Close()
	off, err := f.Seek(-4, vfs.SeekEnd)
	if err != nil || off != 6 {
		t.Fatalf("off=%d err=%v", off, err)
	}
	buf := make([]byte, 4)
	n, _ := f.Read(buf)
	if string(buf[:n]) != "6789" {
		t.Fatalf("read %q", buf[:n])
	}
}

func TestIoctlOnClosedFile(t *testing.T) {
	fs, cl := clientFixture()
	fs.WriteFile("/f", []byte("x"), 0o644, 0, 0)
	f, _ := cl.Open("/f", vfs.ORead)
	f.Close()
	if err := f.Ioctl(1, nil); err != vfs.ErrBadFD {
		t.Fatalf("ioctl after close: %v", err)
	}
	if _, err := f.Seek(0, vfs.SeekSet); err != vfs.ErrBadFD {
		t.Fatalf("seek after close: %v", err)
	}
	if f.Poll(vfs.PollIn) != 0 {
		t.Fatal("poll after close should be 0")
	}
}

// gateFS is a one-file file system whose every vnode and handle operation
// counts a violation unless its mount lock is held: the contract of a
// locked mount.
type gateFS struct {
	held, taken int // lock depth and acquisitions
	bad         int // operations that ran without the lock
}

func (g *gateFS) Lock() {
	if g.held != 0 {
		panic("reentrant acquire of a mount lock")
	}
	g.held++
	g.taken++
}
func (g *gateFS) Unlock() { g.held-- }
func (g *gateFS) op() {
	if g.held != 1 {
		g.bad++
	}
}

type gateDir struct{ g *gateFS }

func (d gateDir) VAttr() (vfs.Attr, error) {
	d.g.op()
	return vfs.Attr{Type: vfs.VDIR, Mode: 0o555}, nil
}
func (d gateDir) VOpen(int, types.Cred) (vfs.Handle, error) { d.g.op(); return nil, vfs.ErrIsDir }
func (d gateDir) VLookup(string, types.Cred) (vfs.Vnode, error) {
	d.g.op()
	return gateFile(d), nil
}
func (d gateDir) VReadDir(types.Cred) ([]vfs.Dirent, error) { d.g.op(); return nil, nil }

type gateFile struct{ g *gateFS }

func (f gateFile) VAttr() (vfs.Attr, error) {
	f.g.op()
	return vfs.Attr{Type: vfs.VREG, Mode: 0o666, Size: 8}, nil
}
func (f gateFile) VOpen(int, types.Cred) (vfs.Handle, error) { f.g.op(); return f, nil }
func (f gateFile) HRead(p []byte, off int64) (int, error)    { f.g.op(); return 0, vfs.EOF }
func (f gateFile) HWrite(p []byte, off int64) (int, error)   { f.g.op(); return len(p), nil }
func (f gateFile) HIoctl(int, interface{}) error             { f.g.op(); return nil }
func (f gateFile) HClose() error                             { f.g.op(); return nil }
func (f gateFile) HPoll(int) int                             { f.g.op(); return 0 }

// A Client, and every method of a File it opens, holds a locked mount's
// lock around each vnode and handle operation on that mount, once per
// call; the NS methods beneath it take no lock, for callers that hold it.
func TestLockedMountGateway(t *testing.T) {
	fs, cl := clientFixture()
	fs.MkdirAll("/gate", 0o755)
	g := &gateFS{}
	if err := cl.NS.MountLocked("/gate", gateDir{g}, g); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/gate/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadDir("/gate"); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open("/gate/f", vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	f.Read(make([]byte, 1))
	f.Pwrite([]byte("x"), 0)
	f.Ioctl(1, nil)
	f.Poll(vfs.PollPri)
	f.Seek(0, vfs.SeekEnd)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if g.bad != 0 || g.held != 0 || g.taken != 9 {
		t.Fatalf("through the client: %d unlocked operations, held %d, taken %d times (want 0, 0, 9)", g.bad, g.held, g.taken)
	}
	if _, err := cl.Stat("/"); err != nil || g.taken != 9 {
		t.Fatalf("a path outside the mount took its lock (%v)", err)
	}

	// The lock-free path, under a lock its caller holds.
	g.Lock()
	h, err := cl.NS.Open("/gate/f", vfs.ORead, cl.Cred)
	if err != nil {
		t.Fatal(err)
	}
	h.Read(make([]byte, 1))
	h.Close()
	g.Unlock()
	if g.bad != 0 || g.taken != 10 {
		t.Fatalf("lock-free path: %d unlocked operations, taken %d times (want 0, 10)", g.bad, g.taken)
	}
}
