package memfs

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vfs"
)

func newFixture(t *testing.T) (*FS, *vfs.NS) {
	t.Helper()
	clock := int64(0)
	fs := New(func() int64 { clock++; return clock })
	ns := vfs.NewNS(fs.Root())
	return fs, ns
}

func TestWriteAndReadFile(t *testing.T) {
	fs, ns := newFixture(t)
	if err := fs.WriteFile("/bin/hello", []byte("payload"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	cl := &vfs.Client{NS: ns, Cred: types.UserCred(100, 10)}
	data, err := cl.ReadFile("/bin/hello")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("data = %q", data)
	}
	attr, err := cl.Stat("/bin/hello")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Mode != 0o755 || attr.Size != 7 || attr.Type != vfs.VREG {
		t.Fatalf("attr = %+v", attr)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/secret", []byte("x"), 0o600, 0, 0)
	user := &vfs.Client{NS: ns, Cred: types.UserCred(100, 10)}
	if _, err := user.Open("/secret", vfs.ORead); err != vfs.ErrPerm {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
	root := &vfs.Client{NS: ns, Cred: types.RootCred()}
	if _, err := root.Open("/secret", vfs.ORead); err != nil {
		t.Fatalf("root open failed: %v", err)
	}
	// Search permission on directories is enforced too.
	fs.MkdirAll("/locked", 0o700)
	fs.WriteFile("/locked/f", []byte("y"), 0o644, 0, 0)
	if _, err := user.Open("/locked/f", vfs.ORead); err != vfs.ErrPerm {
		t.Fatalf("err = %v, want ErrPerm through locked dir", err)
	}
}

func TestCreateRemove(t *testing.T) {
	fs, ns := newFixture(t)
	fs.MkdirAll("/tmp", 0o777)
	cl := &vfs.Client{NS: ns, Cred: types.UserCred(100, 10)}
	f, err := cl.Open("/tmp/new", vfs.OWrite|vfs.OCreat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	attr, err := cl.Stat("/tmp/new")
	if err != nil {
		t.Fatal(err)
	}
	if attr.UID != 100 {
		t.Fatalf("creator uid = %d", attr.UID)
	}
	dw, name, err := ns.LookupDir("/tmp/new", cl.Cred)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.VRemove(name, cl.Cred); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/tmp/new"); err != vfs.ErrNotExist {
		t.Fatal("file should be gone")
	}
}

func TestReadDirSorted(t *testing.T) {
	fs, ns := newFixture(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		fs.WriteFile("/d/"+n, nil, 0o644, 0, 0)
	}
	cl := &vfs.Client{NS: ns, Cred: types.RootCred()}
	ents, err := cl.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "alpha" || ents[1].Name != "mid" || ents[2].Name != "zeta" {
		t.Fatalf("ents = %+v", ents)
	}
}

func TestSequentialReadWriteAndSeek(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/f", []byte("0123456789"), 0o666, 0, 0)
	cl := &vfs.Client{NS: ns, Cred: types.UserCred(1, 1)}
	f, err := cl.Open("/f", vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	f.Read(buf)
	if string(buf) != "0123" {
		t.Fatalf("first read %q", buf)
	}
	f.Read(buf)
	if string(buf) != "4567" {
		t.Fatalf("second read %q", buf)
	}
	if _, err := f.Seek(2, vfs.SeekSet); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("XY"))
	if off, _ := f.Seek(0, vfs.SeekCur); off != 4 {
		t.Fatalf("offset = %d", off)
	}
	if off, _ := f.Seek(-1, vfs.SeekEnd); off != 9 {
		t.Fatalf("seek end = %d", off)
	}
	data, _ := cl.ReadFile("/f")
	if string(data) != "01XY456789" {
		t.Fatalf("data = %q", data)
	}
	// Read past EOF.
	f.Seek(100, vfs.SeekSet)
	if _, err := f.Read(buf); err != vfs.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestOTruncAndClosedFile(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/f", []byte("long content"), 0o666, 0, 0)
	cl := &vfs.Client{NS: ns, Cred: types.UserCred(1, 1)}
	f, err := cl.Open("/f", vfs.OWrite|vfs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	attr, _ := cl.Stat("/f")
	if attr.Size != 0 {
		t.Fatal("OTrunc should empty the file")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != vfs.ErrBadFD {
		t.Fatal("double close should be EBADF")
	}
	if _, err := f.Write([]byte("x")); err != vfs.ErrBadFD {
		t.Fatal("write after close should be EBADF")
	}
}

func TestReadNotOpenForWrite(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/f", []byte("data"), 0o666, 0, 0)
	cl := &vfs.Client{NS: ns, Cred: types.UserCred(1, 1)}
	f, _ := cl.Open("/f", vfs.ORead)
	if _, err := f.Write([]byte("x")); err != vfs.ErrBadFD {
		t.Fatal("write on read-only fd should fail")
	}
	g, _ := cl.Open("/f", vfs.OWrite)
	if _, err := g.Read(make([]byte, 1)); err != vfs.ErrBadFD {
		t.Fatal("read on write-only fd should fail")
	}
}

func TestMemObjectMapping(t *testing.T) {
	fs, _ := newFixture(t)
	content := bytes.Repeat([]byte{0xEE}, 100)
	fs.WriteFile("/bin/prog", content, 0o755, 0, 0)
	obj, err := fs.Object("/bin/prog")
	if err != nil {
		t.Fatal(err)
	}
	if obj.ObjName() != "/bin/prog" {
		t.Fatalf("ObjName = %q", obj.ObjName())
	}
	if obj.ObjSize() != 100 {
		t.Fatalf("ObjSize = %d", obj.ObjSize())
	}
	buf := make([]byte, 8)
	obj.ReadObj(buf, 96)
	if buf[0] != 0xEE || buf[3] != 0xEE || buf[4] != 0 {
		t.Fatalf("ReadObj zero-fill wrong: %v", buf)
	}
	if err := obj.WriteObj([]byte{1, 2}, 200); err != nil {
		t.Fatal(err)
	}
	if obj.ObjSize() != 202 {
		t.Fatal("WriteObj should grow the file")
	}
	// Directories are not mappable.
	if _, err := fs.Object("/bin"); err == nil {
		t.Fatal("directory should not be an object")
	}
}

func TestMkdirAllIdempotentAndConflicts(t *testing.T) {
	fs, _ := newFixture(t)
	if err := fs.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal("MkdirAll should be idempotent")
	}
	fs.WriteFile("/a/file", nil, 0o644, 0, 0)
	if err := fs.MkdirAll("/a/file/sub", 0o755); err != vfs.ErrNotDir {
		t.Fatalf("err = %v, want ErrNotDir", err)
	}
}

func TestChmodChown(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/f", nil, 0o644, 0, 0)
	fs.Chmod("/f", 0o4755)
	fs.Chown("/f", 5, 6)
	cl := &vfs.Client{NS: ns, Cred: types.RootCred()}
	attr, _ := cl.Stat("/f")
	if attr.Mode != 0o4755 || attr.UID != 5 || attr.GID != 6 {
		t.Fatalf("attr = %+v", attr)
	}
	if !attr.IsSetID() {
		t.Fatal("setuid bit lost")
	}
}

func TestRemoveNonEmptyDirRefused(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/d/f", nil, 0o644, 0, 0)
	dw, name, err := ns.LookupDir("/d", types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.VRemove(name, types.RootCred()); err != vfs.ErrBusy {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
}

func TestPollOnRegularFile(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/f", []byte("x"), 0o644, 0, 0)
	cl := &vfs.Client{NS: ns, Cred: types.RootCred()}
	f, _ := cl.Open("/f", vfs.ORead)
	if f.Poll(vfs.PollIn) != 0 {
		t.Fatal("regular files do not implement poll; expect 0")
	}
}

// TestEpochFollowsExposure pins when a file's changes move the mem epoch:
// never while no frame cache has been handed its bytes, and on every
// change (write, truncating open, reinstall, restore) once ObjBytes has.
func TestEpochFollowsExposure(t *testing.T) {
	fs, ns := newFixture(t)
	fs.WriteFile("/data", []byte("abc"), 0o666, 0, 0)
	cl := &vfs.Client{NS: ns, Cred: types.RootCred()}
	f, err := cl.Open("/data", vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	epoch := mem.Epoch()
	if _, err := f.Pwrite([]byte("xyz"), 2); err != nil {
		t.Fatal(err)
	}
	st := fs.SaveState()
	fs.WriteFile("/data", []byte("def"), 0o666, 0, 0)
	fs.RestoreState(st)
	if got := mem.Epoch(); got != epoch {
		t.Fatalf("changes to a never-exposed file moved the epoch %d times", got-epoch)
	}

	obj, _ := fs.Object("/data")
	data := obj.(mem.RevBytes).ObjBytes()
	if string(data) != "abxyz" {
		t.Fatalf("ObjBytes = %q", data)
	}
	for _, c := range []struct {
		name string
		do   func()
	}{
		{"write", func() { f.Pwrite([]byte("q"), 0) }},
		{"O_TRUNC open", func() { cl.Open("/data", vfs.OWrite|vfs.OTrunc) }},
		{"WriteFile", func() { fs.WriteFile("/data", []byte("ghi"), 0o666, 0, 0) }},
		{"RestoreState", func() { fs.RestoreState(st) }},
	} {
		epoch := mem.Epoch()
		c.do()
		if mem.Epoch() == epoch {
			t.Fatalf("%s of an exposed file left the epoch alone", c.name)
		}
	}
}

// TestWriteCap pins memfs's size cap: a write may end exactly at
// MaxFileSize, one byte further fails with ErrNoSpace and leaves the file
// as it was, and a negative or overflowing offset is refused too.
func TestWriteCap(t *testing.T) {
	fs, _ := newFixture(t)
	fs.WriteFile("/f", nil, 0o644, 0, 0)
	obj, _ := fs.Object("/f")
	if err := obj.WriteObj([]byte{1}, MaxFileSize-1); err != nil {
		t.Fatalf("write ending at the cap: %v", err)
	}
	for _, c := range []struct {
		off  int64
		want error
	}{
		{MaxFileSize, vfs.ErrNoSpace},
		{1<<63 - 1, vfs.ErrNoSpace},
		{-1, vfs.ErrInval},
	} {
		if err := obj.WriteObj([]byte{2}, c.off); err != c.want {
			t.Fatalf("write at %#x: %v, want %v", c.off, err, c.want)
		}
	}
	if n := obj.ObjSize(); n != MaxFileSize {
		t.Fatalf("size %d after the refused writes, want %d", n, MaxFileSize)
	}
}
