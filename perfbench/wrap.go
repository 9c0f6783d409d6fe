package main

import (
	"fmt"
	"io"
	"net"

	"repro/internal/blockfs"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// The layer wrappers of a traced run. Each forwards every call to the value
// it wraps inside a span, and each has exactly the wrapped value's method
// set among the optional interfaces callers probe for (vfs.Dir,
// vfs.DirWriter, vfs.Syncer, the chmod hook, vfs.Poller, the fsync hook,
// vfs.HandleSnapshotter, io.Closer): a wrapper that dropped one would make
// the kernel take a different path — sync(2) skipping the disk, poll(2)
// failing — and the traced run would measure a different program. Go
// cannot add methods at run time, so there is one wrapper type per method
// set the wrapped file systems produce, and a value with any other set is
// refused rather than wrapped lossily.

// chmodder and fsyncer are the kernel's private probes (chmod(2) and
// fsync(2) in internal/kernel/sysfile.go).
type chmodder interface{ SetMode(uint16) }
type fsyncer interface{ HSync() error }

// vfsLayer maps the vnode and handle calls of one file system to span kinds.
type vfsLayer struct {
	tr                       *tracer
	meta, read, write, fsync kind
	ioctl                    func(cmd int) kind
}

func procfsLayer(tr *tracer) *vfsLayer {
	return &vfsLayer{tr: tr, meta: kProcMeta, read: kProcIO, write: kProcIO, fsync: kProcMeta,
		ioctl: func(cmd int) kind {
			switch cmd {
			case procfs.PIOCWSTOP:
				return kProcWait
			case procfs.PIOCSNAP:
				return kProcSnap
			}
			return kProcCtl
		}}
}

func blockfsLayer(tr *tracer) *vfsLayer {
	return &vfsLayer{tr: tr, meta: kBfsMeta, read: kBfsRead, write: kBfsWrite, fsync: kBfsFsync,
		ioctl: func(int) kind { return kBfsMeta }}
}

// Method-set bits.
const (
	capDir = 1 << iota
	capDirWriter
	capSyncer
	capChmod
	capPoller
	capFsync
	capSnapshot
)

func vnodeCaps(v vfs.Vnode) int {
	c := 0
	if _, ok := v.(vfs.Dir); ok {
		c |= capDir
	}
	if _, ok := v.(vfs.DirWriter); ok {
		c |= capDirWriter
	}
	if _, ok := v.(vfs.Syncer); ok {
		c |= capSyncer
	}
	if _, ok := v.(chmodder); ok {
		c |= capChmod
	}
	return c
}

func handleCaps(h vfs.Handle) int {
	c := 0
	if _, ok := h.(vfs.Poller); ok {
		c |= capPoller
	}
	if _, ok := h.(fsyncer); ok {
		c |= capFsync
	}
	if _, ok := h.(vfs.HandleSnapshotter); ok {
		c |= capSnapshot
	}
	return c
}

// wrapVnode wraps v, or fails if v's method set has no wrapper type.
func (l *vfsLayer) wrapVnode(v vfs.Vnode) (vfs.Vnode, error) {
	base := wVnode{l: l, v: v}
	switch vnodeCaps(v) {
	case 0:
		return &base, nil
	case capDir: // the /proc root
		return &wDir{wVnode: base, d: v.(vfs.Dir)}, nil
	case capDir | capDirWriter | capSyncer | capChmod: // every blockfs node
		return &wDiskNode{wDir: wDir{wVnode: base, d: v.(vfs.Dir)}, dw: v.(vfs.DirWriter)}, nil
	}
	return nil, fmt.Errorf("perfbench: no wrapper for vnode %T with method set %#x", v, vnodeCaps(v))
}

func (l *vfsLayer) wrapDir(d vfs.Dir) (vfs.Dir, error) {
	v, err := l.wrapVnode(d)
	if err != nil {
		return nil, err
	}
	return v.(vfs.Dir), nil
}

func (l *vfsLayer) wrapHandle(h vfs.Handle) (vfs.Handle, error) {
	base := wHandle{l: l, h: h}
	switch handleCaps(h) {
	case 0:
		return &base, nil
	case capFsync: // a blockfs file
		return &wSyncHandle{base}, nil
	case capSnapshot: // the /proc directory
		return &wSnapHandle{base}, nil
	case capPoller | capSnapshot: // a /proc process file
		return &wPollSnapHandle{wSnapHandle{base}}, nil
	}
	return nil, fmt.Errorf("perfbench: no wrapper for handle %T with method set %#x", h, handleCaps(h))
}

type wVnode struct {
	l *vfsLayer
	v vfs.Vnode
}

func (w *wVnode) VAttr() (vfs.Attr, error) {
	ok := w.l.tr.begin(w.l.meta)
	a, err := w.v.VAttr()
	w.l.tr.end(ok)
	return a, err
}

func (w *wVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	ok := w.l.tr.begin(w.l.meta)
	h, err := w.v.VOpen(flags, c)
	w.l.tr.end(ok)
	if err != nil {
		return nil, err
	}
	return w.l.wrapHandle(h)
}

type wDir struct {
	wVnode
	d vfs.Dir
}

func (w *wDir) VLookup(name string, c types.Cred) (vfs.Vnode, error) {
	ok := w.l.tr.begin(w.l.meta)
	v, err := w.d.VLookup(name, c)
	w.l.tr.end(ok)
	if err != nil {
		return nil, err
	}
	return w.l.wrapVnode(v)
}

func (w *wDir) VReadDir(c types.Cred) ([]vfs.Dirent, error) {
	ok := w.l.tr.begin(w.l.meta)
	ents, err := w.d.VReadDir(c)
	w.l.tr.end(ok)
	return ents, err
}

type wDiskNode struct {
	wDir
	dw vfs.DirWriter
}

func (w *wDiskNode) VCreate(name string, mode uint16, c types.Cred) (vfs.Vnode, error) {
	ok := w.l.tr.begin(w.l.meta)
	v, err := w.dw.VCreate(name, mode, c)
	w.l.tr.end(ok)
	if err != nil {
		return nil, err
	}
	return w.l.wrapVnode(v)
}

func (w *wDiskNode) VMkdir(name string, mode uint16, c types.Cred) (vfs.Dir, error) {
	ok := w.l.tr.begin(w.l.meta)
	d, err := w.dw.VMkdir(name, mode, c)
	w.l.tr.end(ok)
	if err != nil {
		return nil, err
	}
	return w.l.wrapDir(d)
}

func (w *wDiskNode) VRemove(name string, c types.Cred) error {
	ok := w.l.tr.begin(w.l.meta)
	err := w.dw.VRemove(name, c)
	w.l.tr.end(ok)
	return err
}

func (w *wDiskNode) VSync() error {
	ok := w.l.tr.begin(w.l.fsync)
	err := w.v.(vfs.Syncer).VSync()
	w.l.tr.end(ok)
	return err
}

func (w *wDiskNode) SetMode(mode uint16) {
	ok := w.l.tr.begin(w.l.meta)
	w.v.(chmodder).SetMode(mode)
	w.l.tr.end(ok)
}

type wHandle struct {
	l *vfsLayer
	h vfs.Handle
}

func (w *wHandle) HRead(p []byte, off int64) (int, error) {
	ok := w.l.tr.begin(w.l.read)
	n, err := w.h.HRead(p, off)
	w.l.tr.end(ok)
	return n, err
}

func (w *wHandle) HWrite(p []byte, off int64) (int, error) {
	ok := w.l.tr.begin(w.l.write)
	n, err := w.h.HWrite(p, off)
	w.l.tr.end(ok)
	return n, err
}

func (w *wHandle) HIoctl(cmd int, arg interface{}) error {
	ok := w.l.tr.begin(w.l.ioctl(cmd))
	err := w.h.HIoctl(cmd, arg)
	w.l.tr.end(ok)
	return err
}

func (w *wHandle) HClose() error {
	ok := w.l.tr.begin(w.l.meta)
	err := w.h.HClose()
	w.l.tr.end(ok)
	return err
}

type wSyncHandle struct{ wHandle }

func (w *wSyncHandle) HSync() error {
	ok := w.l.tr.begin(w.l.fsync)
	err := w.h.(fsyncer).HSync()
	w.l.tr.end(ok)
	return err
}

type wSnapHandle struct{ wHandle }

func (w *wSnapHandle) HSaveState() any { return w.h.(vfs.HandleSnapshotter).HSaveState() }
func (w *wSnapHandle) HLoadState(st any) {
	w.h.(vfs.HandleSnapshotter).HLoadState(st)
}

type wPollSnapHandle struct{ wSnapHandle }

func (w *wPollSnapHandle) HPoll(mask int) int {
	ok := w.l.tr.begin(w.l.meta)
	r := w.h.(vfs.Poller).HPoll(mask)
	w.l.tr.end(ok)
	return r
}

// wDev is the block-device wrapper: spans per block call plus the bytes
// moved, for write amplification and the cache-miss proxy.
type wDev struct {
	tr *tracer
	d  blockfs.Dev
}

func (w *wDev) ReadBlock(no uint32, p []byte) error {
	ok := w.tr.begin(kDevRead)
	err := w.d.ReadBlock(no, p)
	w.tr.end(ok)
	w.tr.count(&w.tr.devReadBytes, len(p))
	return err
}

func (w *wDev) WriteBlock(no uint32, p []byte) error {
	ok := w.tr.begin(kDevWrite)
	err := w.d.WriteBlock(no, p)
	w.tr.end(ok)
	w.tr.count(&w.tr.devWriteBytes, len(p))
	return err
}

func (w *wDev) Sync() error {
	ok := w.tr.begin(kDevSync)
	err := w.d.Sync()
	w.tr.end(ok)
	return err
}

func (w *wDev) Blocks() uint32 { return w.d.Blocks() }
func (w *wDev) Close() error   { return w.d.Close() }

// wTransport times each rfs round trip. It wraps the mux transport, which
// is an rfs.IdemTransport and an io.Closer, and is both itself.
type wTransport struct {
	tr *tracer
	t  interface {
		rfs.IdemTransport
		io.Closer
	}
}

func (w *wTransport) RoundTrip(req []byte) ([]byte, error) {
	ok := w.tr.begin(kRFS)
	resp, err := w.t.RoundTrip(req)
	w.tr.end(ok)
	return resp, err
}

func (w *wTransport) RoundTripIdem(req []byte, idempotent bool) ([]byte, error) {
	ok := w.tr.begin(kRFS)
	resp, err := w.t.RoundTripIdem(req, idempotent)
	w.tr.end(ok)
	return resp, err
}

func (w *wTransport) Close() error { return w.t.Close() }

// wConn counts the bytes an rfs client moves over its connection. rfs
// probes connections only for io.Closer, which net.Conn already is.
type wConn struct {
	net.Conn
	tr *tracer
}

func (c *wConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.count(&c.tr.connBytes, n)
	return n, err
}

func (c *wConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.count(&c.tr.connBytes, n)
	return n, err
}
