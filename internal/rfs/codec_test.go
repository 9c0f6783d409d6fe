package rfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// Round-trip every registered codec: encodeArg → decodeArg reconstructs the
// argument; appendResult → decodeResult reproduces the out-value.
func TestCodecRoundTrips(t *testing.T) {
	var sigs types.SigSet
	sigs.Add(types.SIGINT)
	sigs.Add(types.SIGUSR2)
	var flts types.FltSet
	flts.Add(types.FLTBPT)
	var syss types.SysSet
	syss.Add(kernel.SysRead)
	syss.Add(kernel.SysExec)
	regs := vcpu.Regs{PC: 0x80000010, SP: 0x7FFF0000, PSW: 5}
	regs.R[3] = 42
	run := kernel.RunFlags{ClearSig: true, Step: true, SetPC: true, PC: 0x1234, SetSig: 9}
	watch := procfs.PrWatch{Vaddr: 0x8000, Size: 16, Mode: mem.ProtWrite}
	five := 5
	status := kernel.ProcStatus{Pid: 7, Why: kernel.WhyFaulted, What: types.FLTBPT, Reg: regs}
	info := kernel.PSInfo{Pid: 7, Comm: "x", Args: "x -v", State: 'R', VSize: 4096}
	cred := types.Cred{RUID: 1, EUID: 2, SUID: 2, RGID: 3, EGID: 4, SGID: 4, Groups: []int{7, 8}}
	maps := []procfs.PrMap{{Vaddr: 0x80000000, Size: 4096, Prot: mem.ProtRX, Kind: mem.KindText, Name: "/bin/x"}}
	usage := procfs.PrUsage{Usage: kernel.Usage{UserTicks: 10, Syscalls: 3}, COWFaults: 2}

	// In-arguments: encode client-side, decode server-side, compare.
	inCases := []struct {
		name  string
		cmd   int
		arg   interface{}
		check func(got interface{}) bool
	}{
		{"sigset", procfs.PIOCSTRACE, &sigs, func(g interface{}) bool { return *g.(*types.SigSet) == sigs }},
		{"fltset", procfs.PIOCSFAULT, &flts, func(g interface{}) bool { return *g.(*types.FltSet) == flts }},
		{"sysset", procfs.PIOCSENTRY, &syss, func(g interface{}) bool { return *g.(*types.SysSet) == syss }},
		{"int", procfs.PIOCKILL, &five, func(g interface{}) bool { return *g.(*int) == 5 }},
		{"regs", procfs.PIOCSREG, &regs, func(g interface{}) bool { return *g.(*vcpu.Regs) == regs }},
		{"run", procfs.PIOCRUN, &run, func(g interface{}) bool { return *g.(*kernel.RunFlags) == run }},
		{"watch", procfs.PIOCSWATCH, &watch, func(g interface{}) bool { return *g.(*procfs.PrWatch) == watch }},
	}
	for _, tc := range inCases {
		codec := ioctlCodecs[tc.cmd]
		b, err := codec.encodeArg(tc.arg)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got, err := codec.decodeArg(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !tc.check(got) {
			t.Fatalf("%s: round trip mismatch: %+v", tc.name, got)
		}
	}

	// Out-results: encode server-side, decode into the caller's variable.
	t.Run("status", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCSTATUS]
		b, err := codec.appendResult(nil, &status)
		if err != nil {
			t.Fatal(err)
		}
		var out kernel.ProcStatus
		if err := codec.decodeResult(b, &out); err != nil {
			t.Fatal(err)
		}
		if out != status {
			t.Fatalf("%+v", out)
		}
		// nil arg is tolerated (PIOCSTOP with no status wanted).
		if err := codec.decodeResult(b, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("psinfo", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCPSINFO]
		b, _ := codec.appendResult(nil, &info)
		var out kernel.PSInfo
		if err := codec.decodeResult(b, &out); err != nil || out != info {
			t.Fatalf("%+v %v", out, err)
		}
	})
	t.Run("cred", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCCRED]
		b, _ := codec.appendResult(nil, &cred)
		var out types.Cred
		if err := codec.decodeResult(b, &out); err != nil {
			t.Fatal(err)
		}
		if out.RUID != 1 || out.EGID != 4 || len(out.Groups) != 2 || out.Groups[1] != 8 {
			t.Fatalf("%+v", out)
		}
	})
	t.Run("map", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCMAP]
		b, _ := codec.appendResult(nil, &maps)
		var out []procfs.PrMap
		if err := codec.decodeResult(b, &out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0] != maps[0] {
			t.Fatalf("%+v", out)
		}
	})
	t.Run("usage", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCUSAGE]
		b, _ := codec.appendResult(nil, &usage)
		var out procfs.PrUsage
		if err := codec.decodeResult(b, &out); err != nil {
			t.Fatal(err)
		}
		if out.UserTicks != 10 || out.COWFaults != 2 {
			t.Fatalf("%+v", out)
		}
	})
	t.Run("regsOut", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCGREG]
		b, _ := codec.appendResult(nil, &regs)
		var out vcpu.Regs
		if err := codec.decodeResult(b, &out); err != nil || out != regs {
			t.Fatalf("%+v %v", out, err)
		}
	})
	t.Run("sigsetOut", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCGTRACE]
		b, _ := codec.appendResult(nil, &sigs)
		var out types.SigSet
		if err := codec.decodeResult(b, &out); err != nil || out != sigs {
			t.Fatalf("%+v %v", out, err)
		}
	})
	t.Run("intOut", func(t *testing.T) {
		codec := ioctlCodecs[procfs.PIOCMAXSIG]
		n := 128
		b, _ := codec.appendResult(nil, &n)
		var out int
		if err := codec.decodeResult(b, &out); err != nil || out != 128 {
			t.Fatalf("%d %v", out, err)
		}
	})
}

// Wrong argument types are rejected, not crashed on.
func TestCodecTypeErrors(t *testing.T) {
	bad := "not the right type"
	for _, cmd := range []int{procfs.PIOCSTRACE, procfs.PIOCKILL, procfs.PIOCSREG, procfs.PIOCSWATCH} {
		codec := ioctlCodecs[cmd]
		if _, err := codec.encodeArg(&bad); err == nil {
			t.Errorf("cmd %#x accepted a bad arg type", cmd)
		}
	}
	for _, cmd := range []int{procfs.PIOCSTATUS, procfs.PIOCPSINFO, procfs.PIOCCRED, procfs.PIOCMAP} {
		codec := ioctlCodecs[cmd]
		if err := codec.decodeResult([]byte{1, 2, 3}, &bad); err == nil {
			t.Errorf("cmd %#x accepted a bad result type", cmd)
		}
	}
	// Truncated operand bytes are rejected.
	if _, err := ioctlCodecs[procfs.PIOCSTRACE].decodeArg([]byte{1, 2}); err == nil {
		t.Error("truncated sigset accepted")
	}
	if _, err := ioctlCodecs[procfs.PIOCSREG].decodeArg([]byte{1}); err == nil {
		t.Error("truncated regs accepted")
	}
}

// fakeTransport returns one canned response (or error) for every round trip:
// a hostile or broken server, from the client's point of view.
type fakeTransport struct {
	resp []byte
	err  error
}

func (t *fakeTransport) RoundTrip(req []byte) ([]byte, error) { return t.resp, t.err }

// okHeader builds a response claiming success, to which corrupt payloads are
// appended.
func okHeader() []byte {
	m := &buf{}
	m.putU32(errNone)
	m.putStr("")
	return m.b
}

// exercise runs every client surface against the canned transport and hands
// each outcome to check. HPoll's error path is degraded (it reports "no
// events ready"), so it is only run for the no-panic property.
func exercise(t *testing.T, tr Transport, check func(name string, err error)) {
	t.Helper()
	c := NewClient(tr, types.RootCred())
	_, err := c.Open("/x", 0)
	check("Open", err)
	_, err = c.Stat("/x")
	check("Stat", err)
	_, err = c.ReadDir("/x")
	check("ReadDir", err)
	h := &remoteHandle{c: c, fd: 1}
	_, err = h.HRead(make([]byte, 8), 0)
	check("HRead", err)
	_, err = h.HWrite([]byte("x"), 0)
	check("HWrite", err)
	var st kernel.ProcStatus
	check("HIoctl", h.HIoctl(procfs.PIOCSTATUS, &st))
	check("HClose", h.HClose())
	h.HPoll(1)
}

// A transport failure surfaces as an error from every operation.
func TestClientTransportError(t *testing.T) {
	boom := errors.New("connection torn down")
	exercise(t, &fakeTransport{err: boom}, func(name string, err error) {
		if err != boom {
			t.Errorf("%s: got %v, want the transport error", name, err)
		}
	})
}

// A response whose error header itself is truncated or garbled fails every
// operation — no panics, no fabricated success.
func TestClientCorruptResponses(t *testing.T) {
	cases := []struct {
		name string
		resp []byte
	}{
		{"empty", nil},
		{"header cut mid-u32", []byte{0, 0}},
		{"header cut mid-string", append([]byte{0, 0, 0, 0}, 0, 0, 0, 9)},
		{"garbage", []byte{9, 9, 9, 9, 9, 9, 9, 9, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exercise(t, &fakeTransport{resp: tc.resp}, func(name string, err error) {
				if err == nil {
					t.Errorf("%s accepted a corrupt response", name)
				}
			})
		})
	}
}

// A well-formed success header followed by a missing or truncated payload is
// rejected by every operation that expects one. (HClose carries no payload,
// so for it a bare success header is legitimate.)
func TestClientTruncatedPayloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		resp []byte
	}{
		{"no payload", okHeader()},
		{"payload cut short", append(okHeader(), 0xFF)},
	}[:] {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(&fakeTransport{resp: tc.resp}, types.RootCred())
			if _, err := c.Open("/x", 0); err == nil {
				t.Error("Open succeeded without an fd")
			}
			if _, err := c.Stat("/x"); err == nil {
				t.Error("Stat succeeded without attributes")
			}
			if _, err := c.ReadDir("/x"); err == nil {
				t.Error("ReadDir succeeded without a count")
			}
			h := &remoteHandle{c: c, fd: 1}
			if _, err := h.HRead(make([]byte, 8), 0); err == nil {
				t.Error("HRead succeeded without data")
			}
			if _, err := h.HWrite([]byte("x"), 0); err == nil {
				t.Error("HWrite succeeded without a count")
			}
			var st kernel.ProcStatus
			if err := h.HIoctl(procfs.PIOCSTATUS, &st); err == nil {
				t.Error("HIoctl succeeded without a result")
			}
		})
	}
}

// A byte count exceeding what the client sent is a lying server, not a
// successful write.
func TestClientOverlongWriteCount(t *testing.T) {
	resp := append(okHeader(), 0, 0, 0, 200)
	c := NewClient(&fakeTransport{resp: resp}, types.RootCred())
	h := &remoteHandle{c: c, fd: 1}
	if n, err := h.HWrite([]byte("xy"), 0); err == nil {
		t.Errorf("HWrite of 2 bytes accepted a count of %d", n)
	}
}

// A response that passes the header but carries a hostile payload: absurd
// counts and lengths are bounded, not allocated or sliced out of range.
func TestClientHostilePayloads(t *testing.T) {
	huge := append(okHeader(), 0xFF, 0xFF, 0xFF, 0xFF) // count/len ~4 billion
	c := NewClient(&fakeTransport{resp: huge}, types.RootCred())
	if _, err := c.ReadDir("/x"); err == nil {
		t.Error("ReadDir accepted an absurd entry count")
	}
	h := &remoteHandle{c: c, fd: 1}
	if _, err := h.HRead(make([]byte, 8), 0); err == nil {
		t.Error("HRead accepted an absurd byte length")
	}
	var st kernel.ProcStatus
	if err := h.HIoctl(procfs.PIOCSTATUS, &st); err == nil {
		t.Error("HIoctl accepted an absurd result length")
	}
	// Plausible length, garbage content: the per-command codec rejects it.
	garbage := okHeader()
	garbage = append(garbage, 0, 0, 0, 3, 1, 2, 3)
	c2 := NewClient(&fakeTransport{resp: garbage}, types.RootCred())
	h2 := &remoteHandle{c: c2, fd: 1}
	if err := h2.HIoctl(procfs.PIOCSTATUS, &st); err == nil {
		t.Error("HIoctl accepted a truncated status payload")
	}
}

// The server answers malformed requests with error responses — it must not
// panic, and must not report success.
func TestServerGarbageRequests(t *testing.T) {
	fs := memfs.New(func() int64 { return 0 })
	srv := NewServer(vfs.NewNS(fs.Root()), nil)
	reqs := [][]byte{
		nil,
		{},
		{opOpen},             // op with no credential
		{opOpen, 0, 0, 0, 1}, // credential cut short
		{opRead, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1}, // args missing
		{0xEE, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1},   // unknown op
		bytes.Repeat([]byte{0xA5}, 300),
	}
	for i, req := range reqs {
		resp := srv.Handle(req)
		m := &buf{b: resp}
		code := m.u32()
		msg := m.str()
		if m.err != nil {
			t.Errorf("req %d: unparseable response %x", i, resp)
			continue
		}
		if decodeErr(code, msg) == nil {
			t.Errorf("req %d: server claimed success for garbage", i)
		}
	}
}

// Every sentinel error survives the wire intact — EOF in particular, which
// readers use to find the end of trace and status files on remote mounts.
func TestErrCodeRoundTrip(t *testing.T) {
	for _, want := range []error{
		vfs.ErrNotExist, vfs.ErrPerm, vfs.ErrNotDir, vfs.ErrIsDir,
		vfs.ErrExist, vfs.ErrBusy, vfs.ErrInval, vfs.ErrBadFD,
		vfs.ErrStale, vfs.ErrAgain, vfs.ErrNoIoctl, vfs.EOF,
	} {
		code, msg := encodeErr(want)
		if got := decodeErr(code, msg); got != want {
			t.Errorf("%v came back as %v", want, got)
		}
	}
	if code, _ := encodeErr(nil); decodeErr(code, "") != nil {
		t.Error("nil did not survive")
	}
	code, msg := encodeErr(errors.New("ring buffer torn"))
	if got := decodeErr(code, msg); got == nil || got.Error() != "rfs: ring buffer torn" {
		t.Errorf("errOther: %v", got)
	}
}
