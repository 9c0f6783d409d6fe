package rfs

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Server exports a name space over the RFS protocol. Each connection
// declares its credentials at handshake (RFS-style trusted network); the
// server acts within the name space under those credentials, so all the
// usual /proc security applies remotely.
type Server struct {
	NS *vfs.NS
	// Lock serializes access to the simulated system when requests arrive
	// from multiple connections or goroutines; the kernel itself is
	// deliberately not goroutine-safe.
	Lock sync.Locker
	// MuxWorkers is the number of concurrent dispatch workers per
	// multiplexed connection (0 selects a default).
	MuxWorkers int
	// MuxFaults, when set, injects wire faults into multiplexed responses
	// (tests only).
	MuxFaults *Faults

	// Tap, if set, observes every (request, response) pair after dispatch,
	// under the server lock. Both slices are valid only during the call:
	// the response frame is recycled once it is written. The record/replay
	// subsystem uses it to capture the remote mutation stream server-side —
	// past the transport, so wire faults and disconnect storms never
	// corrupt the recorded ops.
	Tap func(req, resp []byte)

	mu     sync.Mutex
	nextFD uint32
	open   map[uint32]*vfs.File
	creds  map[uint32]types.Cred // per-fd opening credential (audit)
}

// NewServer creates a server over a name space. lock may be nil for
// single-goroutine (LocalTransport) use.
func NewServer(ns *vfs.NS, lock sync.Locker) *Server {
	if lock == nil {
		lock = noLock{}
	}
	return &Server{NS: ns, Lock: lock, open: map[uint32]*vfs.File{}, creds: map[uint32]types.Cred{}}
}

type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// ServerState is the server's mutable session state — the remote-open fd
// table — captured for whole-kernel checkpoints. A replayed request stream
// that opens an fd before a checkpoint and uses it after must find the fd
// live again when the checkpoint is restored.
type ServerState struct {
	nextFD uint32
	open   map[uint32]*vfs.File
	creds  map[uint32]types.Cred
	files  map[*vfs.File]vfs.FileState
}

// SaveState captures the fd table and each open description's state.
func (s *Server) SaveState() *ServerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &ServerState{
		nextFD: s.nextFD,
		open:   make(map[uint32]*vfs.File, len(s.open)),
		creds:  make(map[uint32]types.Cred, len(s.creds)),
		files:  make(map[*vfs.File]vfs.FileState, len(s.open)),
	}
	for fd, f := range s.open {
		st.open[fd] = f
		st.files[f] = f.SaveState()
	}
	for fd, c := range s.creds {
		st.creds[fd] = c
	}
	return st
}

// LoadState restores a state captured by SaveState; the state remains
// reusable.
func (s *Server) LoadState(st *ServerState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextFD = st.nextFD
	s.open = make(map[uint32]*vfs.File, len(st.open))
	s.creds = make(map[uint32]types.Cred, len(st.creds))
	for fd, f := range st.open {
		s.open[fd] = f
	}
	for fd, c := range st.creds {
		s.creds[fd] = c
	}
	for f, fst := range st.files {
		f.LoadState(fst)
	}
}

// Handle processes one request and returns the response, acquiring the
// server lock around the dispatch.
func (s *Server) Handle(req []byte) []byte {
	s.Lock.Lock()
	defer s.Lock.Unlock()
	return s.appendResponse(nil, req)
}

// successHeader is the response header of a success: error code errNone and an
// empty message.
var successHeader [8]byte

// appendResponse processes one request body with the server lock already
// held by the caller — the multiplexed path batches several requests under
// one acquisition — and appends the response to dst, which may already hold
// a frame prefix such as the mux tag. The success header is reserved up
// front and the body encoded behind it, so a result is written once, into
// the frame that goes on the wire; only a failure rewrites the header, and
// it discards whatever body the failed operation had begun.
func (s *Server) appendResponse(dst, req []byte) []byte {
	in := &wire.Cursor{B: req}
	op := in.U8()
	cred := types.Cred{
		RUID: int(in.U32()), EUID: int(in.U32()),
		RGID: int(in.U32()), EGID: int(in.U32()),
	}
	cred.SUID, cred.SGID = cred.EUID, cred.EGID
	hdr := len(dst)
	out := &wire.Cursor{B: append(dst, successHeader[:]...)}
	err := in.Err
	if err == nil {
		err = s.dispatch(op, cred, in, out)
	}
	if err != nil {
		code, msg := encodeErr(err)
		out.B = out.B[:hdr]
		out.PutU32(code)
		out.PutStr(msg)
	}
	if s.Tap != nil {
		s.Tap(req, out.B[hdr:])
	}
	return out.B
}

func (s *Server) dispatch(op uint8, cred types.Cred, in, out *wire.Cursor) error {
	cl := &vfs.Client{NS: s.NS, Cred: cred}
	switch op {
	case opOpen:
		path := in.Str()
		flags := int(in.U32())
		if in.Err != nil {
			return in.Err
		}
		f, err := cl.Open(path, flags)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.nextFD++
		fd := s.nextFD
		s.open[fd] = f
		s.creds[fd] = cred
		s.mu.Unlock()
		out.PutU32(fd)
		return nil

	case opClose:
		fd := in.U32()
		f := s.lookupFD(fd)
		if f == nil {
			return vfs.ErrBadFD
		}
		s.mu.Lock()
		delete(s.open, fd)
		delete(s.creds, fd)
		s.mu.Unlock()
		return f.Close()

	case opRead:
		fd := in.U32()
		off := in.I64()
		n := int(in.U32())
		if in.Err != nil {
			return in.Err
		}
		f := s.lookupFD(fd)
		if f == nil {
			return vfs.ErrBadFD
		}
		if n > 1<<20 {
			n = 1 << 20
		}
		p := make([]byte, n)
		got, err := f.Pread(p, off)
		if err != nil && got == 0 {
			return err
		}
		out.PutBytes(p[:got])
		return nil

	case opWrite:
		fd := in.U32()
		off := in.I64()
		data := in.View()
		if in.Err != nil {
			return in.Err
		}
		f := s.lookupFD(fd)
		if f == nil {
			return vfs.ErrBadFD
		}
		got, err := f.Pwrite(data, off)
		if err != nil && got == 0 {
			return err
		}
		out.PutU32(uint32(got))
		return nil

	case opReadDir:
		path := in.Str()
		if in.Err != nil {
			return in.Err
		}
		ents, err := cl.ReadDir(path)
		if err != nil {
			return err
		}
		out.PutU32(uint32(len(ents)))
		for _, e := range ents {
			out.PutStr(e.Name)
			putAttr(out, e.Attr)
		}
		return nil

	case opStat:
		path := in.Str()
		if in.Err != nil {
			return in.Err
		}
		attr, err := cl.Stat(path)
		if err != nil {
			return err
		}
		putAttr(out, attr)
		return nil

	case opIoctl:
		fd := in.U32()
		cmd := int(in.U32())
		argBytes := in.View()
		if in.Err != nil {
			return in.Err
		}
		f := s.lookupFD(fd)
		if f == nil {
			return vfs.ErrBadFD
		}
		// The ioctl ugliness: the server must know each command's operand
		// shape to reconstruct it, perform the call, and re-serialize.
		codec, ok := ioctlCodecs[cmd]
		if !ok {
			return vfs.ErrNoIoctl
		}
		arg, err := codec.decodeArg(argBytes)
		if err != nil {
			return err
		}
		if codec.release != nil {
			defer codec.release(arg)
		}
		if err := f.Ioctl(cmd, arg); err != nil {
			return err
		}
		// The result goes straight onto the response behind a length word
		// patched once the encoding is done.
		at := len(out.B)
		out.PutU32(0)
		if out.B, err = codec.appendResult(out.B, arg); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(out.B[at:], uint32(len(out.B)-at-4))
		return nil

	case opPoll:
		fd := in.U32()
		mask := int(in.U32())
		if in.Err != nil {
			return in.Err
		}
		f := s.lookupFD(fd)
		if f == nil {
			return vfs.ErrBadFD
		}
		out.PutU32(uint32(f.Poll(mask)))
		return nil
	}
	return vfs.ErrInval
}

func (s *Server) lookupFD(fd uint32) *vfs.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open[fd]
}

// errNoHandshake ends a connection whose first frame is not the mux
// handshake.
var errNoHandshake = errors.New("rfs: first frame is not the mux handshake")

// ServeConn serves the tagged, pipelined protocol on a connection until it
// closes. The first frame must be the mux handshake, which is echoed; any
// other first frame ends the connection with an error.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	req, err := readFrame(conn)
	if err != nil {
		if err == io.EOF {
			return nil
		}
		return err
	}
	if string(req) != muxMagic {
		return errNoHandshake
	}
	if err := writeFrame(conn, []byte(muxMagic)); err != nil {
		return err
	}
	return s.serveMux(conn)
}

// LocalTransport invokes a server in-process — deterministic and
// single-goroutine, like a loopback mount.
type LocalTransport struct{ S *Server }

// RoundTrip implements Transport.
func (t LocalTransport) RoundTrip(req []byte) ([]byte, error) {
	return t.S.Handle(req), nil
}
