package rfs

import (
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Client is the remote side of an RFS mount: the same Open/Stat/ReadDir
// surface as vfs.Client, with every operation forwarded over the transport.
// Opened files satisfy *vfs.File, so tools like ps, truss and the debugger
// run unmodified against remote processes.
type Client struct {
	T    Transport
	Cred types.Cred
	// ops counts protocol round trips, for the paper's remote-efficiency
	// arguments. Atomic: a client on a MuxTransport may be shared across
	// goroutines.
	ops atomic.Int64
}

// NewClient creates a remote client acting under cred.
func NewClient(t Transport, cred types.Cred) *Client {
	return &Client{T: t, Cred: cred}
}

// Ops returns the number of protocol round trips made so far.
func (c *Client) Ops() int64 { return c.ops.Load() }

func (c *Client) call(op uint8, build func(*wire.Cursor)) (*wire.Cursor, error) {
	c.ops.Add(1)
	req := &wire.Cursor{}
	req.PutU8(op)
	req.PutU32(uint32(c.Cred.RUID))
	req.PutU32(uint32(c.Cred.EUID))
	req.PutU32(uint32(c.Cred.RGID))
	req.PutU32(uint32(c.Cred.EGID))
	build(req)
	var respB []byte
	var err error
	if it, ok := c.T.(IdemTransport); ok {
		// Tell the transport which requests are safe to re-send after a
		// deadline expiry; it decides the retry policy.
		respB, err = it.RoundTripIdem(req.B, idempotentOp(op))
	} else {
		respB, err = c.T.RoundTrip(req.B)
	}
	if err != nil {
		return nil, err
	}
	resp := &wire.Cursor{B: respB}
	code := resp.U32()
	msg := resp.Str()
	if resp.Err == nil {
		err = decodeErr(code, msg)
	} else {
		err = resp.Err
	}
	if err != nil {
		c.release(resp)
		return nil, err
	}
	return resp, nil
}

// recycler is a transport that takes a response body back for reuse once
// the client has decoded it.
type recycler interface{ recycle(body []byte) }

// release hands a decoded response back to a transport that recycles its
// bodies. Every operation releases its response when it returns: decoding
// copies what it keeps, and nothing may read resp afterwards.
func (c *Client) release(resp *wire.Cursor) {
	if r, ok := c.T.(recycler); ok {
		r.recycle(resp.B)
	}
}

// Open opens a remote path and returns a local *vfs.File whose handle
// forwards I/O and control over the wire.
func (c *Client) Open(path string, flags int) (*vfs.File, error) {
	resp, err := c.call(opOpen, func(m *wire.Cursor) {
		m.PutStr(path)
		m.PutU32(uint32(flags))
	})
	if err != nil {
		return nil, err
	}
	defer c.release(resp)
	fd := resp.U32()
	if resp.Err != nil {
		// The server reported success, so it holds an open fd even though
		// the response was too mangled to use. Release it best-effort so a
		// flaky wire cannot leak server-side descriptors. (If the fd field
		// itself was the truncated part, fd is zero — never a served fd,
		// so the close is harmless.)
		err := resp.Err
		c.call(opClose, func(m *wire.Cursor) { m.PutU32(fd) })
		return nil, err
	}
	h := &remoteHandle{c: c, fd: fd}
	return &vfs.File{VN: &remoteVnode{c: c, path: path}, H: h, Flags: flags}, nil
}

// Stat returns remote file attributes.
func (c *Client) Stat(path string) (vfs.Attr, error) {
	resp, err := c.call(opStat, func(m *wire.Cursor) { m.PutStr(path) })
	if err != nil {
		return vfs.Attr{}, err
	}
	defer c.release(resp)
	a := attr(resp)
	return a, resp.Err
}

// ReadDir lists a remote directory.
func (c *Client) ReadDir(path string) ([]vfs.Dirent, error) {
	resp, err := c.call(opReadDir, func(m *wire.Cursor) { m.PutStr(path) })
	if err != nil {
		return nil, err
	}
	defer c.release(resp)
	// Each entry is at least its name's length word and its attributes.
	n := resp.Count(4 + attrSize)
	if resp.Err != nil {
		return nil, resp.Err
	}
	out := make([]vfs.Dirent, 0, n)
	for i := 0; i < n; i++ {
		name := resp.Str()
		attr := attr(resp)
		if resp.Err != nil {
			return nil, resp.Err
		}
		out = append(out, vfs.Dirent{Name: name, Attr: attr})
	}
	return out, nil
}

// remoteVnode carries attributes for Seek(SeekEnd) and friends.
type remoteVnode struct {
	c    *Client
	path string
}

// VAttr implements vfs.Vnode.
func (v *remoteVnode) VAttr() (vfs.Attr, error) { return v.c.Stat(v.path) }

// VOpen implements vfs.Vnode.
func (v *remoteVnode) VOpen(flags int, cred types.Cred) (vfs.Handle, error) {
	f, err := v.c.Open(v.path, flags)
	if err != nil {
		return nil, err
	}
	return f.H, nil
}

// remoteHandle forwards vfs.Handle operations over the transport.
type remoteHandle struct {
	c  *Client
	fd uint32
}

// HRead implements vfs.Handle.
func (h *remoteHandle) HRead(p []byte, off int64) (int, error) {
	resp, err := h.c.call(opRead, func(m *wire.Cursor) {
		m.PutU32(h.fd)
		m.PutU64(uint64(off))
		m.PutU32(uint32(len(p)))
	})
	if err != nil {
		return 0, err
	}
	defer h.c.release(resp)
	data := resp.View()
	if resp.Err != nil {
		return 0, resp.Err
	}
	// A server cannot have read more than it was asked for; an oversized
	// payload is a protocol violation, not data to silently truncate.
	if len(data) > len(p) {
		return 0, errShort
	}
	return copy(p, data), nil
}

// HWrite implements vfs.Handle.
func (h *remoteHandle) HWrite(p []byte, off int64) (int, error) {
	resp, err := h.c.call(opWrite, func(m *wire.Cursor) {
		m.PutU32(h.fd)
		m.PutU64(uint64(off))
		m.PutBytes(p)
	})
	if err != nil {
		return 0, err
	}
	defer h.c.release(resp)
	n := resp.U32()
	if resp.Err != nil {
		return 0, resp.Err
	}
	// A server cannot have written more than it was sent.
	if int64(n) > int64(len(p)) {
		return 0, errShort
	}
	return int(n), nil
}

// HIoctl implements vfs.Handle: the operand is marshalled by the per-command
// codec (the machinery read/write never needs).
func (h *remoteHandle) HIoctl(cmd int, arg interface{}) error {
	codec, ok := ioctlCodecs[cmd]
	if !ok {
		return vfs.ErrNoIoctl
	}
	argBytes, err := codec.encodeArg(arg)
	if err != nil {
		return err
	}
	resp, cerr := h.c.call(opIoctl, func(m *wire.Cursor) {
		m.PutU32(h.fd)
		m.PutU32(uint32(cmd))
		m.PutBytes(argBytes)
	})
	if cerr != nil {
		return cerr
	}
	defer h.c.release(resp)
	// The response frame belongs to this call, so the result decodes from
	// a view of it rather than a copy.
	res := resp.View()
	if resp.Err != nil {
		return resp.Err
	}
	return codec.decodeResult(res, arg)
}

// HClose implements vfs.Handle.
func (h *remoteHandle) HClose() error {
	resp, err := h.c.call(opClose, func(m *wire.Cursor) { m.PutU32(h.fd) })
	if err != nil {
		return err
	}
	h.c.release(resp)
	return nil
}

// HPoll implements vfs.Poller by asking the server. A transport failure is
// reported as vfs.PollErr, never as "no events ready": a poll loop that
// read a dead connection as all-clear would wait forever.
func (h *remoteHandle) HPoll(mask int) int {
	resp, err := h.c.call(opPoll, func(m *wire.Cursor) {
		m.PutU32(h.fd)
		m.PutU32(uint32(mask))
	})
	if err != nil {
		return vfs.PollErr
	}
	defer h.c.release(resp)
	ev := int(resp.U32())
	if resp.Err != nil {
		return vfs.PollErr
	}
	return ev
}

var (
	_ vfs.Handle = (*remoteHandle)(nil)
	_ vfs.Poller = (*remoteHandle)(nil)
)
