package rfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// scriptT is a Transport answering from a scripted list of responses while
// recording every request, for pinning client behaviour against a
// misbehaving (or merely unlucky) server.
type scriptT struct {
	resps [][]byte
	errs  []error
	reqs  [][]byte
}

func (t *scriptT) RoundTrip(req []byte) ([]byte, error) {
	t.reqs = append(t.reqs, append([]byte(nil), req...))
	i := len(t.reqs) - 1
	var err error
	if i < len(t.errs) {
		err = t.errs[i]
	}
	if i < len(t.resps) {
		return t.resps[i], err
	}
	return nil, err
}

// okResp builds a response frame body with errNone status and extra fields
// appended by build.
func okResp(build func(*wire.Cursor)) []byte {
	m := &wire.Cursor{}
	m.PutU32(errNone)
	m.PutStr("")
	if build != nil {
		build(m)
	}
	return m.B
}

// Regression: a server returning more bytes than the client asked for must
// be rejected, not silently truncated into p.
func TestHReadRejectsOversizedPayload(t *testing.T) {
	tr := &scriptT{resps: [][]byte{
		okResp(func(m *wire.Cursor) { m.PutBytes(make([]byte, 64)) }),
	}}
	h := &remoteHandle{c: NewClient(tr, types.RootCred()), fd: 1}
	n, err := h.HRead(make([]byte, 16), 0)
	if err != errShort || n != 0 {
		t.Fatalf("oversized read payload: n=%d err=%v, want 0, errShort", n, err)
	}
}

// A payload no larger than the request is still fine (short reads are
// normal).
func TestHReadShortPayloadOK(t *testing.T) {
	tr := &scriptT{resps: [][]byte{
		okResp(func(m *wire.Cursor) { m.PutBytes([]byte("abc")) }),
	}}
	h := &remoteHandle{c: NewClient(tr, types.RootCred()), fd: 1}
	p := make([]byte, 16)
	n, err := h.HRead(p, 0)
	if err != nil || n != 3 || string(p[:3]) != "abc" {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
}

// Regression: when an Open response reports success but is truncated before
// the fd, the server-side fd must not leak — the client sends a best-effort
// close before surfacing the decode error.
func TestOpenTruncatedResponseClosesServerFD(t *testing.T) {
	tr := &scriptT{resps: [][]byte{
		okResp(nil), // success status, fd field missing
		okResp(nil), // the best-effort close's answer
	}}
	cl := NewClient(tr, types.RootCred())
	if _, err := cl.Open("/tmp/x", vfs.ORead); err != errShort {
		t.Fatalf("truncated open: %v, want errShort", err)
	}
	if len(tr.reqs) != 2 {
		t.Fatalf("requests sent = %d, want open + best-effort close", len(tr.reqs))
	}
	if op := tr.reqs[1][0]; op != opClose {
		t.Fatalf("follow-up op = %d, want opClose", op)
	}
}

// Regression: a transport failure during poll must be distinguishable from
// "no events ready" — a poll loop on a dead connection would otherwise wait
// forever.
func TestHPollSurfacesTransportError(t *testing.T) {
	tr := &scriptT{errs: []error{errors.New("wire down")}}
	h := &remoteHandle{c: NewClient(tr, types.RootCred()), fd: 1}
	if ev := h.HPoll(vfs.PollPri); ev&vfs.PollErr == 0 {
		t.Fatalf("poll on dead transport = %#x, want PollErr set", ev)
	}
	// And a healthy all-clear still reads as zero.
	tr2 := &scriptT{resps: [][]byte{okResp(func(m *wire.Cursor) { m.PutU32(0) })}}
	h2 := &remoteHandle{c: NewClient(tr2, types.RootCred()), fd: 1}
	if ev := h2.HPoll(vfs.PollPri); ev != 0 {
		t.Fatalf("healthy all-clear poll = %#x, want 0", ev)
	}
}

// Regression: wrapped sentinel errors must cross the wire as their code,
// not as errOther text.
func TestEncodeErrWrapped(t *testing.T) {
	wrapped := fmt.Errorf("open %q: %w", "/tmp/x", vfs.ErrNotExist)
	code, msg := encodeErr(wrapped)
	if code != errNotExist || msg != "" {
		t.Fatalf("encodeErr(wrapped ErrNotExist) = %d %q", code, msg)
	}
	if err := decodeErr(code, msg); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("round trip = %v, want ErrNotExist", err)
	}
	// The full matrix round-trips, wrapped and bare.
	for _, w := range wireErrs {
		for _, e := range []error{w.err, fmt.Errorf("ctx: %w", w.err)} {
			code, msg := encodeErr(e)
			if code != w.code {
				t.Fatalf("encodeErr(%v) = %d, want %d", e, code, w.code)
			}
			if got := decodeErr(code, msg); got != w.err {
				t.Fatalf("decodeErr(%d) = %v, want %v", code, got, w.err)
			}
		}
	}
	// Unknown errors still carry their text.
	code, msg = encodeErr(errors.New("weird"))
	if code != errOther || msg != "weird" {
		t.Fatalf("unknown error: %d %q", code, msg)
	}
}
