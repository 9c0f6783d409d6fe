package rfs

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"repro/internal/types"
	"repro/internal/vfs"
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
	in := &buf{b: req}
	op := in.u8()
	cred := types.Cred{
		RUID: int(in.u32()), EUID: int(in.u32()),
		RGID: int(in.u32()), EGID: int(in.u32()),
	}
	cred.SUID, cred.SGID = cred.EUID, cred.EGID
	hdr := len(dst)
	out := &buf{b: append(dst, successHeader[:]...)}
	err := in.err
	if err == nil {
		err = s.dispatch(op, cred, in, out)
	}
	if err != nil {
		code, msg := encodeErr(err)
		out.b = out.b[:hdr]
		out.putU32(code)
		out.putStr(msg)
	}
	if s.Tap != nil {
		s.Tap(req, out.b[hdr:])
	}
	return out.b
}

func (s *Server) dispatch(op uint8, cred types.Cred, in, out *buf) error {
	cl := &vfs.Client{NS: s.NS, Cred: cred}
	switch op {
	case opOpen:
		path := in.str()
		flags := int(in.u32())
		if in.err != nil {
			return in.err
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
		out.putU32(fd)
		return nil

	case opClose:
		fd := in.u32()
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
		fd := in.u32()
		off := in.i64()
		n := int(in.u32())
		if in.err != nil {
			return in.err
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
		out.putBytes(p[:got])
		return nil

	case opWrite:
		fd := in.u32()
		off := in.i64()
		data := in.view()
		if in.err != nil {
			return in.err
		}
		f := s.lookupFD(fd)
		if f == nil {
			return vfs.ErrBadFD
		}
		got, err := f.Pwrite(data, off)
		if err != nil && got == 0 {
			return err
		}
		out.putU32(uint32(got))
		return nil

	case opReadDir:
		path := in.str()
		if in.err != nil {
			return in.err
		}
		ents, err := cl.ReadDir(path)
		if err != nil {
			return err
		}
		out.putU32(uint32(len(ents)))
		for _, e := range ents {
			out.putStr(e.Name)
			out.putAttr(e.Attr)
		}
		return nil

	case opStat:
		path := in.str()
		if in.err != nil {
			return in.err
		}
		attr, err := cl.Stat(path)
		if err != nil {
			return err
		}
		out.putAttr(attr)
		return nil

	case opIoctl:
		fd := in.u32()
		cmd := int(in.u32())
		argBytes := in.view()
		if in.err != nil {
			return in.err
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
		at := len(out.b)
		out.putU32(0)
		if out.b, err = codec.appendResult(out.b, arg); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(out.b[at:], uint32(len(out.b)-at-4))
		return nil

	case opPoll:
		fd := in.u32()
		mask := int(in.u32())
		if in.err != nil {
			return in.err
		}
		f := s.lookupFD(fd)
		if f == nil {
			return vfs.ErrBadFD
		}
		out.putU32(uint32(f.Poll(mask)))
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
