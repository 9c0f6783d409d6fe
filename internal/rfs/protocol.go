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

// buf is a simple big-endian message builder/parser.
type buf struct {
	b   []byte
	off int
	err error
}

func (m *buf) putU8(v uint8)   { m.b = append(m.b, v) }
func (m *buf) putU32(v uint32) { m.b = binary.BigEndian.AppendUint32(m.b, v) }
func (m *buf) putU64(v uint64) { m.b = binary.BigEndian.AppendUint64(m.b, v) }
func (m *buf) putI64(v int64)  { m.putU64(uint64(v)) }
func (m *buf) putStr(s string) {
	m.putU32(uint32(len(s)))
	m.b = append(m.b, s...)
}
func (m *buf) putBytes(p []byte) {
	m.putU32(uint32(len(p)))
	m.b = append(m.b, p...)
}

var errShort = errors.New("rfs: truncated message")

func (m *buf) u8() uint8 {
	if m.err != nil || m.off >= len(m.b) {
		m.err = errShort
		return 0
	}
	v := m.b[m.off]
	m.off++
	return v
}

func (m *buf) u32() uint32 {
	if m.err != nil || m.off+4 > len(m.b) {
		m.err = errShort
		return 0
	}
	v := binary.BigEndian.Uint32(m.b[m.off:])
	m.off += 4
	return v
}

func (m *buf) u64() uint64 {
	if m.err != nil || m.off+8 > len(m.b) {
		m.err = errShort
		return 0
	}
	v := binary.BigEndian.Uint64(m.b[m.off:])
	m.off += 8
	return v
}

func (m *buf) i64() int64 { return int64(m.u64()) }

func (m *buf) str() string {
	n := int(m.u32())
	if m.err != nil || n < 0 || m.off+n > len(m.b) {
		m.err = errShort
		return ""
	}
	s := string(m.b[m.off : m.off+n])
	m.off += n
	return s
}

// view returns the next length-prefixed byte string as a subslice of the
// message, without copying: the caller must own the message for as long as
// it holds the view.
func (m *buf) view() []byte {
	n := int(m.u32())
	if m.err != nil || n < 0 || m.off+n > len(m.b) {
		m.err = errShort
		return nil
	}
	p := m.b[m.off : m.off+n : m.off+n]
	m.off += n
	return p
}

func (m *buf) putAttr(a vfs.Attr) {
	m.putU32(uint32(a.Type))
	m.putU32(uint32(a.Mode))
	m.putU32(uint32(a.UID))
	m.putU32(uint32(a.GID))
	m.putI64(a.Size)
	m.putI64(a.MTime)
	m.putU32(uint32(a.Nlink))
}

func (m *buf) attr() vfs.Attr {
	return vfs.Attr{
		Type:  vfs.VType(m.u32()),
		Mode:  uint16(m.u32()),
		UID:   int(m.u32()),
		GID:   int(m.u32()),
		Size:  m.i64(),
		MTime: m.i64(),
		Nlink: int(m.u32()),
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
