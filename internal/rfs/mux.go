package rfs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The multiplexed protocol, the only one a connection speaks. Every frame
// payload is a u32 request tag followed by a request or response body:
//
//	frame    = u32 length | payload
//	payload  = u32 tag    | body          (body as Server.Handle takes and returns it)
//
// The client assigns tags and demultiplexes responses by tag, so any number
// of goroutines can pipeline requests on one connection; the server decodes
// frames off the wire, dispatches each request on a worker, and writes
// responses out of order as they complete. A connection opens with a
// handshake: the client's first frame is muxMagic, which the server echoes.
// A server given any other first frame drops the connection.
const muxMagic = "RFS/mux1"

// ErrTimeout is returned when a request's deadline expires before its
// response arrives. Idempotent requests may be retried past it (see
// MuxTransport.Retries); for the rest it is the final answer.
var ErrTimeout = errors.New("rfs: request deadline exceeded")

// ErrClosed is returned for requests issued against a closed transport.
var ErrClosed = errors.New("rfs: transport closed")

// MuxStats counts transport-level events, for tests and diagnostics.
type MuxStats struct {
	Sent    int64 // request frames handed to the writer
	Expired int64 // requests whose deadline fired
	Retried int64 // idempotent re-sends after an expiry
	Orphans int64 // responses bearing no in-flight tag (late or duplicated), dropped
}

type muxReply struct {
	body []byte
	err  error
}

// MuxTransport speaks the tagged protocol over a stream connection. Many
// goroutines may call RoundTrip concurrently; their requests are pipelined
// on the single connection and matched back to callers by tag. The zero
// value is not usable — construct with NewMuxTransport.
type MuxTransport struct {
	// Timeout bounds each request round trip; 0 waits forever.
	Timeout time.Duration
	// Retries is how many times an idempotent request is re-sent after its
	// deadline expires. Non-idempotent requests are never retried: the
	// server may have executed them.
	Retries int
	// Backoff is the pause before the first retry, doubling per attempt.
	// Zero selects a small default.
	Backoff time.Duration

	conn   io.ReadWriter
	r      *bufio.Reader
	wch    chan []byte
	bodies bufPool // response bodies the client has decoded (recycle)

	mu       sync.Mutex
	inflight map[uint32]chan muxReply
	nextTag  uint32
	err      error // sticky transport failure
	closed   bool
	stats    MuxStats

	quit       chan struct{}
	readerDone chan struct{}
	writerDone chan struct{}
}

// NewMuxTransport performs the multiplexing handshake on conn and starts
// the transport's reader and writer goroutines. If conn also implements
// io.Closer, Close tears it down.
func NewMuxTransport(conn io.ReadWriter) (*MuxTransport, error) {
	if err := writeFrame(conn, []byte(muxMagic)); err != nil {
		return nil, err
	}
	ack, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	if string(ack) != muxMagic {
		return nil, errors.New("rfs: peer did not acknowledge mux handshake")
	}
	t := &MuxTransport{
		conn:       conn,
		r:          bufio.NewReaderSize(conn, 64<<10),
		wch:        make(chan []byte),
		bodies:     make(bufPool, 4),
		inflight:   map[uint32]chan muxReply{},
		quit:       make(chan struct{}),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go t.readLoop()
	go t.writeLoop()
	return t, nil
}

// Stats returns a snapshot of the transport counters.
func (t *MuxTransport) Stats() MuxStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// RoundTrip implements Transport.
func (t *MuxTransport) RoundTrip(req []byte) ([]byte, error) {
	return t.RoundTripIdem(req, false)
}

// RoundTripIdem implements IdemTransport: idempotent requests that hit
// their deadline are re-sent (with a fresh tag) up to Retries times with
// exponential backoff.
func (t *MuxTransport) RoundTripIdem(req []byte, idempotent bool) ([]byte, error) {
	attempts := 1
	if idempotent && t.Retries > 0 {
		attempts += t.Retries
	}
	backoff := t.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var resp []byte
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			t.mu.Lock()
			t.stats.Retried++
			t.mu.Unlock()
			time.Sleep(backoff)
			backoff *= 2
		}
		resp, err = t.send(req)
		if err == nil || !errors.Is(err, ErrTimeout) {
			return resp, err
		}
	}
	return nil, err
}

// send performs one tagged exchange: register a tag, enqueue the frame,
// wait for the demultiplexed reply or the deadline.
func (t *MuxTransport) send(req []byte) ([]byte, error) {
	t.mu.Lock()
	if t.err != nil {
		err := t.err
		t.mu.Unlock()
		return nil, err
	}
	t.nextTag++
	tag := t.nextTag
	ch := make(chan muxReply, 1)
	t.inflight[tag] = ch
	t.stats.Sent++
	t.mu.Unlock()

	frame := make([]byte, 4+len(req))
	binary.BigEndian.PutUint32(frame, tag)
	copy(frame[4:], req)

	select {
	case t.wch <- frame:
	case <-t.quit:
		t.forget(tag)
		return nil, t.failure(ErrClosed)
	case <-t.writerDone:
		t.forget(tag)
		return nil, t.failure(ErrClosed)
	}

	var deadline <-chan time.Time
	if t.Timeout > 0 {
		timer := time.NewTimer(t.Timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case r := <-ch:
		return r.body, r.err
	case <-deadline:
		if t.forget(tag) {
			t.mu.Lock()
			t.stats.Expired++
			t.mu.Unlock()
			return nil, ErrTimeout
		}
		// The reply raced the deadline and was already claimed off the
		// in-flight table; it is sitting in the channel.
		r := <-ch
		return r.body, r.err
	}
}

// forget removes tag from the in-flight table, reporting whether it was
// still there. A response arriving for a forgotten tag is an orphan and is
// dropped — this is what makes expired requests and duplicated responses
// safe.
func (t *MuxTransport) forget(tag uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.inflight[tag]
	delete(t.inflight, tag)
	return ok
}

// fail records the first transport failure and delivers it to every
// in-flight request; later sends observe the sticky error immediately.
func (t *MuxTransport) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	err = t.err
	for tag, ch := range t.inflight {
		delete(t.inflight, tag)
		ch <- muxReply{err: err}
	}
	t.mu.Unlock()
}

// failure returns the sticky error, recording fallback if none is set yet.
func (t *MuxTransport) failure(fallback error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = fallback
	}
	return t.err
}

func (t *MuxTransport) readLoop() {
	defer close(t.readerDone)
	for {
		tag, body, err := t.readResponse()
		if err != nil {
			t.fail(err)
			return
		}
		t.mu.Lock()
		ch, ok := t.inflight[tag]
		if ok {
			delete(t.inflight, tag)
		} else {
			t.stats.Orphans++
		}
		t.mu.Unlock()
		if ok {
			ch <- muxReply{body: body}
		} else {
			t.bodies.put(body)
		}
	}
}

// readResponse reads one response frame: its tag, and its body into a
// recycled buffer, which the client hands back once it has decoded it.
func (t *MuxTransport) readResponse() (uint32, []byte, error) {
	n, err := readFrameLen(t.r)
	if err != nil {
		return 0, nil, err
	}
	if n < 4 {
		return 0, nil, errors.New("rfs: mux response frame too short")
	}
	var tag [4]byte
	if _, err := io.ReadFull(t.r, tag[:]); err != nil {
		return 0, nil, err
	}
	body := t.bodies.get(n - 4)
	if _, err := io.ReadFull(t.r, body); err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint32(tag[:]), body, nil
}

// recycle takes back a response body the client has finished decoding.
func (t *MuxTransport) recycle(body []byte) { t.bodies.put(body) }

// bufPool recycles one connection's large buffers: response frames on the
// server, which the writer hands back once they are copied onto the wire,
// and response bodies on the client. A sweep's snapshot response is about
// 230 bytes a process, so a remote ps that allocated one per round trip
// would churn the heap. The pool keeps at most its capacity of buffers and
// none larger than maxPooledBuf; when it is empty a buffer is allocated.
type bufPool chan []byte

// maxPooledBuf bounds the buffers a pool keeps: the largest read an opRead
// returns.
const maxPooledBuf = 1 << 20

// get returns a buffer of length n, recycled when a free one is big enough.
func (p bufPool) get(n int) []byte {
	select {
	case b := <-p:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n, max(n, muxFrameHint))
}

// put offers a buffer nothing uses any more to the pool.
func (p bufPool) put(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	select {
	case p <- b:
	default:
	}
}

// writeLoop coalesces: whatever frames are queued when the writer comes
// around go out in one Write. With N callers pipelining, wire syscalls
// amortize across the whole flight instead of costing one per request.
func (t *MuxTransport) writeLoop() {
	defer close(t.writerDone)
	var out []byte
	for {
		select {
		case frame := <-t.wch:
			out = appendFrame(out[:0], frame)
			n := 1
			// A yield between gathers lets goroutines that woke together
			// (their responses arrived in one batch) enqueue their next
			// requests, so the flight stays coalesced instead of decaying
			// into one-frame writes.
			for spin := 0; spin < 2; spin++ {
			gather:
				for {
					select {
					case f := <-t.wch:
						out = appendFrame(out, f)
						n++
					default:
						break gather
					}
				}
				if n >= t.pending() {
					break
				}
				runtime.Gosched()
			}
			if _, err := t.conn.Write(out); err != nil {
				t.fail(err)
				return
			}
		case <-t.quit:
			return
		}
	}
}

// pending reports how many requests are registered in flight.
func (t *MuxTransport) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}

// appendFrame appends one length-prefixed frame to out.
func appendFrame(out, p []byte) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
	return append(out, p...)
}

// Close shuts the transport down: in-flight requests fail with ErrClosed
// (or the earlier sticky error), and the connection is closed if it can be.
func (t *MuxTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.quit)
	closer, closable := t.conn.(io.Closer)
	if closable {
		closer.Close()
	}
	t.fail(ErrClosed)
	<-t.writerDone
	if closable {
		// The conn close unblocks the reader's pending readFrame.
		<-t.readerDone
	}
	return nil
}

var _ IdemTransport = (*MuxTransport)(nil)

// --- server side ---

type muxFrame struct {
	tag  uint32
	body []byte
}

// muxFrameHint is the initial capacity of a response frame: enough for the
// tag, the header and a small result, so most responses never regrow.
const muxFrameHint = 64

// muxBatchLimit caps how many queued read-mostly requests one worker will
// serve under a single Server.Lock acquisition.
const muxBatchLimit = 16

// readMostlyBody reports whether body is a request safe to batch with other
// reads under one lock acquisition (it is also how the batch is cut short:
// a mutating op ends the drain).
func readMostlyBody(body []byte) bool {
	return len(body) > 0 && idempotentOp(body[0])
}

// ServeMux serves one multiplexed connection: it expects the client's
// handshake frame, acknowledges it, and then decodes tagged requests,
// dispatching each on a worker and writing responses out of order as they
// complete. Kernel access stays serialized via Server.Lock; consecutive
// read-mostly requests are batched under one acquisition.
func (s *Server) ServeMux(conn io.ReadWriter) error {
	hello, err := readFrame(conn)
	if err != nil {
		return err
	}
	if string(hello) != muxMagic {
		return errors.New("rfs: client did not offer mux handshake")
	}
	if err := writeFrame(conn, []byte(muxMagic)); err != nil {
		return err
	}
	return s.serveMux(conn)
}

// serveMux runs after the handshake has been consumed and acknowledged.
func (s *Server) serveMux(conn io.ReadWriter) error {
	workers := s.MuxWorkers
	if workers <= 0 {
		workers = 4
	}
	reqs := make(chan muxFrame, 4*workers)
	resps := make(chan []byte, 4*workers)
	frames := make(bufPool, workers)
	writeErr := make(chan error, 1)
	writerDone := make(chan struct{})
	// outstanding counts requests read off the wire whose responses have not
	// been written yet; the writer uses it to decide whether yielding will
	// grow the batch.
	var outstanding int64
	go func() {
		defer close(writerDone)
		var out []byte
		for frame := range resps {
			var err error
			if s.MuxFaults != nil {
				// Faults are per-frame decisions; no coalescing.
				atomic.AddInt64(&outstanding, -1)
				err = s.MuxFaults.writeFrame(conn, frame)
				frames.put(frame)
			} else {
				out = appendFrame(out[:0], frame)
				frames.put(frame)
				n := int64(1)
				// Same trick as the client's writeLoop: if workers are still
				// holding responses for requests already read, a yield lets
				// them land in this batch instead of fragmenting the flight.
				for spin := 0; spin < 2; spin++ {
				gather:
					for {
						select {
						case f, ok := <-resps:
							if !ok {
								break gather
							}
							out = appendFrame(out, f)
							frames.put(f)
							n++
						default:
							break gather
						}
					}
					if n >= atomic.LoadInt64(&outstanding) {
						break
					}
					runtime.Gosched()
				}
				atomic.AddInt64(&outstanding, -n)
				_, err = conn.Write(out)
			}
			if err != nil {
				select {
				case writeErr <- err:
				default:
				}
				// Keep draining so workers never block on a dead writer.
				for range resps {
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.muxWorker(reqs, resps, frames)
		}()
	}

	var rerr error
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		p, err := readFrame(br)
		if err != nil {
			if err != io.EOF {
				rerr = err
			}
			break
		}
		if len(p) < 4 {
			rerr = errors.New("rfs: mux request frame too short")
			break
		}
		atomic.AddInt64(&outstanding, 1)
		reqs <- muxFrame{tag: binary.BigEndian.Uint32(p), body: p[4:]}
	}
	close(reqs)
	wg.Wait()
	close(resps)
	<-writerDone
	select {
	case err := <-writeErr:
		if rerr == nil {
			rerr = err
		}
	default:
	}
	return rerr
}

// muxWorker serves requests. A read-mostly request opportunistically drains
// more queued requests and serves the whole batch under one Server.Lock
// acquisition — on a busy connection the per-request lock traffic collapses
// into one acquisition per batch.
func (s *Server) muxWorker(reqs <-chan muxFrame, resps chan<- []byte, frames bufPool) {
	for rq := range reqs {
		batch := []muxFrame{rq}
		if readMostlyBody(rq.body) {
		drain:
			for len(batch) < muxBatchLimit {
				select {
				case next, ok := <-reqs:
					if !ok {
						break drain
					}
					batch = append(batch, next)
					if !readMostlyBody(next.body) {
						break drain
					}
				default:
					break drain
				}
			}
		}
		// Each response is built behind its tag, in a recycled frame the
		// writer sends, so nothing is copied after the dispatch.
		out := make([][]byte, len(batch))
		s.Lock.Lock()
		for i, q := range batch {
			frame := binary.BigEndian.AppendUint32(frames.get(0), q.tag)
			out[i] = s.appendResponse(frame, q.body)
		}
		s.Lock.Unlock()
		for _, frame := range out {
			resps <- frame
		}
	}
}
