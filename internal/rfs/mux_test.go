package rfs

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/vfs"
)

// fakeMuxServer accepts the handshake on conn and hands tagged requests to
// the script, which decides what (and when) to answer. It gives the tests
// frame-level control the real server never would.
func fakeMuxServer(t *testing.T, conn net.Conn, script func(send func(tag uint32, body []byte), recv func() (uint32, []byte))) {
	t.Helper()
	go func() {
		hello, err := readFrame(conn)
		if err != nil || string(hello) != muxMagic {
			return
		}
		if err := writeFrame(conn, []byte(muxMagic)); err != nil {
			return
		}
		send := func(tag uint32, body []byte) {
			frame := make([]byte, 4+len(body))
			binary.BigEndian.PutUint32(frame, tag)
			copy(frame[4:], body)
			writeFrame(conn, frame)
		}
		recv := func() (uint32, []byte) {
			p, err := readFrame(conn)
			if err != nil || len(p) < 4 {
				return 0, nil
			}
			return binary.BigEndian.Uint32(p), p[4:]
		}
		script(send, recv)
	}()
}

// The demux table routes responses by tag, not arrival order: a server that
// answers in reverse still satisfies each caller with its own response.
func TestMuxResponseReordering(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	fakeMuxServer(t, server, func(send func(uint32, []byte), recv func() (uint32, []byte)) {
		t1, b1 := recv()
		t2, b2 := recv()
		// Answer the second request first, echoing each body back.
		send(t2, b2)
		send(t1, b1)
	})
	mt, err := NewMuxTransport(client)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	type result struct {
		req  string
		resp []byte
		err  error
	}
	results := make(chan result, 2)
	for _, req := range []string{"first", "second"} {
		req := req
		go func() {
			resp, err := mt.RoundTrip([]byte(req))
			results <- result{req, resp, err}
		}()
		// Stagger so the wire order of the two requests is deterministic.
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s: %v", r.req, r.err)
		}
		if string(r.resp) != r.req {
			t.Fatalf("tag mixup: request %q got response %q", r.req, r.resp)
		}
	}
}

// A deadline expiry surfaces ErrTimeout; the response arriving after it is
// an orphan, dropped without disturbing the next request.
func TestMuxDeadlineAndLateResponse(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	release := make(chan struct{})
	fakeMuxServer(t, server, func(send func(uint32, []byte), recv func() (uint32, []byte)) {
		tag, body := recv()
		<-release // hold the first response past the deadline
		send(tag, body)
		tag2, body2 := recv()
		send(tag2, body2)
	})
	mt, err := NewMuxTransport(client)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	mt.Timeout = 50 * time.Millisecond

	if _, err := mt.RoundTrip([]byte("slow")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline: %v, want ErrTimeout", err)
	}
	close(release)
	resp, err := mt.RoundTrip([]byte("next"))
	if err != nil || string(resp) != "next" {
		t.Fatalf("request after expiry: %q %v", resp, err)
	}
	deadline := time.Now().Add(time.Second)
	for mt.Stats().Orphans == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := mt.Stats().Orphans; got != 1 {
		t.Fatalf("orphaned responses = %d, want 1 (the late one)", got)
	}
}

// Idempotent requests are re-sent after an expiry; non-idempotent ones are
// not.
func TestMuxIdempotentRetry(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	fakeMuxServer(t, server, func(send func(uint32, []byte), recv func() (uint32, []byte)) {
		recv() // swallow the first attempt: its response is "lost"
		tag, body := recv()
		send(tag, body) // the retry gets through
	})
	mt, err := NewMuxTransport(client)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	mt.Timeout = 50 * time.Millisecond
	mt.Retries = 2
	mt.Backoff = time.Millisecond

	resp, err := mt.RoundTripIdem([]byte("idem"), true)
	if err != nil || string(resp) != "idem" {
		t.Fatalf("idempotent retry: %q %v", resp, err)
	}
	if st := mt.Stats(); st.Retried != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want 1 retry after 1 expiry", st)
	}
}

func TestMuxNonIdempotentNotRetried(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	fakeMuxServer(t, server, func(send func(uint32, []byte), recv func() (uint32, []byte)) {
		recv() // never answered
		recv()
	})
	mt, err := NewMuxTransport(client)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	mt.Timeout = 50 * time.Millisecond
	mt.Retries = 3
	mt.Backoff = time.Millisecond

	if _, err := mt.RoundTripIdem([]byte("mutate"), false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("non-idempotent expiry: %v, want ErrTimeout", err)
	}
	if st := mt.Stats(); st.Retried != 0 || st.Sent != 1 {
		t.Fatalf("stats = %+v, want no retries for a non-idempotent request", st)
	}
}

// Close fails in-flight requests and everything after, promptly.
func TestMuxClose(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	fakeMuxServer(t, server, func(send func(uint32, []byte), recv func() (uint32, []byte)) {
		recv() // hold the request, never answering
		recv() // returns when the pipe closes
	})
	mt, err := NewMuxTransport(client)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := mt.RoundTrip([]byte("stuck"))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	mt.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("in-flight request survived Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight request hung across Close")
	}
	if _, err := mt.RoundTrip([]byte("after")); err == nil {
		t.Fatal("request after Close succeeded")
	}
	mt.Close() // idempotent
}

// A peer that does not speak the mux protocol — one that answers the
// handshake frame with an error response, as a stop-and-wait server would —
// makes the mux constructor fail, not hang.
func TestMuxHandshakeAgainstLegacyServer(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		if _, err := readFrame(server); err != nil {
			return
		}
		writeFrame(server, []byte{0, 0, 0, byte(errOther)})
	}()
	if _, err := NewMuxTransport(client); err == nil {
		t.Fatal("handshake against a non-mux peer should fail")
	}
}

// The server side: a connection whose first frame is a bare request rather
// than the handshake is refused with an error and sent nothing.
func TestServeConnRequiresHandshake(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		done <- NewServer(vfs.NewNS(nil), nil).ServeConn(server)
		server.Close()
	}()
	req := &buf{}
	req.putU8(opStat)
	for i := 0; i < 4; i++ {
		req.putU32(0) // root credentials
	}
	req.putStr("/")
	if err := writeFrame(client, req.b); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, errNoHandshake) {
			t.Fatalf("ServeConn = %v, want errNoHandshake", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ServeConn served a connection that skipped the handshake")
	}
	if _, err := readFrame(client); err == nil {
		t.Fatal("the refused connection got a response")
	}
}
