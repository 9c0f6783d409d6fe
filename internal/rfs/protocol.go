// Package rfs implements Remote File Sharing for the simulated system: a
// protocol that forwards file operations — open, close, read, write,
// readdir, stat, and (with effort) ioctl — across a connection, so that any
// resource accessible within the file system name space is accessible
// remotely. Because /proc is just a file system type under the VFS, with
// appropriate permission it is possible to inspect, modify and control
// processes running on any machine in an RFS network; this extension of
// capability "for free" is an additional justification for implementing
// resources this way.
//
// The package also demonstrates the paper's argument for the /proc
// restructuring: read and write forward with no per-operation knowledge,
// while forwarding ioctl requires the per-command marshalling registry in
// ioctlcodec.go — "the unstructured nature of ioctl operations and the
// variability of operand sizes and I/O directions make it difficult to
// cleanly separate the client/server interactions".
package rfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/vfs"
	"repro/internal/wire"
)

// Protocol operation codes.
const (
	opOpen = iota + 1
	opClose
	opRead
	opWrite
	opReadDir
	opStat
	opIoctl
	opPoll
)

// Error codes carried over the wire, mapped back to vfs errors client-side.
const (
	errNone = iota
	errNotExist
	errPerm
	errNotDir
	errIsDir
	errExist
	errBusy
	errInval
	errBadFD
	errStale
	errAgain
	errNoIoctl
	errEOF
	errOther
	// Appended after errOther so existing code assignments stay wire-stable:
	// EIO and ENOSPC must survive the codec as errors.Is identities (a remote
	// client distinguishes a full file system from a broken one), not decay
	// to errOther's opaque message.
	errIO
	errNoSpace
)

// wireErrs maps the vfs sentinel errors to their wire codes, in match order.
var wireErrs = []struct {
	code uint32
	err  error
}{
	{errNotExist, vfs.ErrNotExist},
	{errPerm, vfs.ErrPerm},
	{errNotDir, vfs.ErrNotDir},
	{errIsDir, vfs.ErrIsDir},
	{errExist, vfs.ErrExist},
	{errBusy, vfs.ErrBusy},
	{errInval, vfs.ErrInval},
	{errBadFD, vfs.ErrBadFD},
	{errStale, vfs.ErrStale},
	{errAgain, vfs.ErrAgain},
	{errNoIoctl, vfs.ErrNoIoctl},
	{errEOF, vfs.EOF},
	{errIO, vfs.ErrIO},
	{errNoSpace, vfs.ErrNoSpace},
}

func encodeErr(err error) (uint32, string) {
	if err == nil {
		return errNone, ""
	}
	// errors.Is, not ==: a handler that wraps a sentinel (fmt.Errorf with
	// %w) must still cross the wire as that sentinel, or the client can no
	// longer branch on it.
	for _, w := range wireErrs {
		if errors.Is(err, w.err) {
			return w.code, ""
		}
	}
	return errOther, err.Error()
}

func decodeErr(code uint32, msg string) error {
	switch code {
	case errNone:
		return nil
	case errNotExist:
		return vfs.ErrNotExist
	case errPerm:
		return vfs.ErrPerm
	case errNotDir:
		return vfs.ErrNotDir
	case errIsDir:
		return vfs.ErrIsDir
	case errExist:
		return vfs.ErrExist
	case errBusy:
		return vfs.ErrBusy
	case errInval:
		return vfs.ErrInval
	case errBadFD:
		return vfs.ErrBadFD
	case errStale:
		return vfs.ErrStale
	case errAgain:
		return vfs.ErrAgain
	case errNoIoctl:
		return vfs.ErrNoIoctl
	case errEOF:
		return vfs.EOF
	case errIO:
		return vfs.ErrIO
	case errNoSpace:
		return vfs.ErrNoSpace
	}
	if msg == "" {
		msg = "remote error"
	}
	return errors.New("rfs: " + msg)
}

// errShort reports a truncated or inconsistent message: the codec's
// wire.ErrShort.
var errShort = wire.ErrShort

// attrSize is the encoded size of a vfs.Attr.
const attrSize = 5*4 + 2*8

func putAttr(m *wire.Cursor, a vfs.Attr) {
	m.PutU32(uint32(a.Type))
	m.PutU32(uint32(a.Mode))
	m.PutU32(uint32(a.UID))
	m.PutU32(uint32(a.GID))
	m.PutU64(uint64(a.Size))
	m.PutU64(uint64(a.MTime))
	m.PutU32(uint32(a.Nlink))
}

func attr(m *wire.Cursor) vfs.Attr {
	return vfs.Attr{
		Type:  vfs.VType(m.U32()),
		Mode:  uint16(m.U32()),
		UID:   int(m.U32()),
		GID:   int(m.U32()),
		Size:  m.I64(),
		MTime: m.I64(),
		Nlink: int(m.U32()),
	}
}

// Transport carries one request/response exchange. LocalTransport invokes a
// server directly (deterministic, in-process); MuxTransport pipelines tagged
// frames over a stream connection.
type Transport interface {
	RoundTrip(req []byte) ([]byte, error)
}

// IdemTransport is implemented by transports that can exploit knowing a
// request is idempotent (read, stat, readdir, poll): such a request may be
// re-sent after a deadline expiry, because executing it twice on the server
// is harmless. The client passes the flag; the transport decides the policy.
type IdemTransport interface {
	Transport
	RoundTripIdem(req []byte, idempotent bool) ([]byte, error)
}

// idempotentOp reports whether re-executing op on the server is harmless.
func idempotentOp(op uint8) bool {
	switch op {
	case opRead, opStat, opReadDir, opPoll:
		return true
	}
	return false
}

// writeFrame sends one length-prefixed frame in a single Write, so a frame
// costs one syscall on a real connection.
func writeFrame(w io.Writer, p []byte) error {
	buf := make([]byte, 4+len(p))
	binary.BigEndian.PutUint32(buf, uint32(len(p)))
	copy(buf[4:], p)
	_, err := w.Write(buf)
	return err
}

// readFrame receives one frame.
func readFrame(r io.Reader) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// readFrameLen receives a frame's length word, refusing an oversized frame.
func readFrameLen(r io.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 1<<24 {
		return 0, fmt.Errorf("rfs: oversized frame (%d bytes)", n)
	}
	return int(n), nil
}
