package rfs_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// pauser sits in pause(2), so its /proc file answers every operation
// without the process running away from a request sequence.
const pauser = `
start:	movi r0, SYS_pause
	syscall
	jmp start
.data
word:	.word 0x11223344
`

// fuzzServer boots a system whose target pauses and a server over a name
// space of a fresh memfs, with the flat /proc at /proc and a world-writable
// /tmp beside it: a request reaches every /proc operation and every memfs
// one, down to a write at a hostile offset, which memfs's size cap refuses.
// Waits for a stop are cut to a few thousand scheduler passes, so a
// PIOCWSTOP on a target that never stops ends quickly.
func fuzzServer(t testing.TB) (*rfs.Server, *kernel.Proc) {
	s := repro.NewSystem(repro.Options{NCPU: 1})
	t.Cleanup(s.Close)
	s.Proc.MaxWait = 2000
	p, err := s.SpawnProg("pauser", pauser, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	fs := memfs.New(nil)
	fs.MkdirAll("/proc", 0o555)
	fs.MkdirAll("/tmp", 0o777)
	ns := vfs.NewNS(fs.Root())
	ns.MountLocked("/proc", s.Proc.Root(), s.K.GlobalLocker())
	return rfs.NewServer(ns, nil), p
}

// recordingT passes requests to a server and keeps a copy of each.
type recordingT struct {
	s    *rfs.Server
	reqs [][]byte
}

func (r *recordingT) RoundTrip(req []byte) ([]byte, error) {
	r.reqs = append(r.reqs, append([]byte(nil), req...))
	return r.s.Handle(req), nil
}

// clientSession drives a real client through every operation and one ioctl
// for each remotable command, and returns the requests it sent, each behind
// a u32 length: a seed of FuzzServerHandle.
func clientSession(t testing.TB) []byte {
	srv, p := fuzzServer(t)
	tr := &recordingT{s: srv}
	cl := rfs.NewClient(tr, types.RootCred())
	name := "/proc/" + procfs.PidName(p.Pid)
	if _, err := cl.ReadDir("/proc"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat(name); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open(name, vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	syms, _ := p.ImageSyms()
	var word uint32
	for _, sym := range syms {
		if sym.Name == "word" {
			word = sym.Value
		}
	}
	buf := make([]byte, 4)
	if _, err := f.Pread(buf, int64(word)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite([]byte{1, 2, 3, 4}, int64(word)); err != nil {
		t.Fatal(err)
	}
	f.Poll(vfs.PollIn)
	var (
		st    kernel.ProcStatus
		sigs  types.SigSet
		flts  types.FltSet
		syss  types.SysSet
		regs  vcpu.Regs
		n     int
		sig   = types.SIGUSR1
		nice  = 1
		maps  []procfs.PrMap
		cred  types.Cred
		info  kernel.PSInfo
		usage procfs.PrUsage
		watch = procfs.PrWatch{Vaddr: word, Size: 4, Mode: mem.ProtWrite}
	)
	sigs.Add(types.SIGUSR1)
	flts.Add(types.FLTBPT)
	syss.Add(kernel.SysWrite)
	for _, c := range []struct {
		cmd int
		arg interface{}
	}{
		{procfs.PIOCSTOP, &st}, {procfs.PIOCWSTOP, &st}, {procfs.PIOCSTATUS, &st},
		{procfs.PIOCSTRACE, &sigs}, {procfs.PIOCGTRACE, &sigs},
		{procfs.PIOCSHOLD, &sigs}, {procfs.PIOCGHOLD, &sigs},
		{procfs.PIOCSFAULT, &flts}, {procfs.PIOCCFAULT, nil},
		{procfs.PIOCSENTRY, &syss}, {procfs.PIOCSEXIT, &syss},
		{procfs.PIOCSFORK, nil}, {procfs.PIOCRFORK, nil},
		{procfs.PIOCSRLC, nil}, {procfs.PIOCRRLC, nil},
		{procfs.PIOCGREG, &regs}, {procfs.PIOCSREG, &regs},
		{procfs.PIOCMAXSIG, &n}, {procfs.PIOCNMAP, &n}, {procfs.PIOCMAP, &maps},
		{procfs.PIOCCRED, &cred}, {procfs.PIOCPSINFO, &info},
		{procfs.PIOCUSAGE, &usage}, {procfs.PIOCNICE, &nice},
		{procfs.PIOCSWATCH, &watch}, {procfs.PIOCCWATCH, nil},
		{procfs.PIOCSSIG, &sig}, {procfs.PIOCKILL, &sig}, {procfs.PIOCUNKILL, &sig},
		{procfs.PIOCRUN, &kernel.RunFlags{}},
	} {
		if err := f.Ioctl(c.cmd, c.arg); err != nil {
			t.Fatalf("ioctl %#x: %v", c.cmd, err)
		}
	}
	f.Close()
	d, err := cl.Open("/proc", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ioctl(procfs.PIOCSNAP, &procfs.PrSnap{WithUsage: true, Pids: []int{p.Pid}}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if !p.Alive() {
		t.Fatal("target died during the session")
	}
	return tr.seed()
}

// memfsSession drives a real client through a memfs file's life, up to a
// write past the size cap, and returns the requests it sent like
// clientSession. It is a seed of its own: a short seed keeps the fuzzer's
// minimization of what it finds from it short too.
func memfsSession(t testing.TB) []byte {
	srv, _ := fuzzServer(t)
	tr := &recordingT{s: srv}
	cl := rfs.NewClient(tr, types.RootCred())
	m, err := cl.Open("/tmp/f", vfs.ORead|vfs.OWrite|vfs.OCreat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pwrite([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pread(make([]byte, 4), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pwrite([]byte{1}, memfs.MaxFileSize); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("write past the memfs cap: %v, want ErrNoSpace", err)
	}
	m.Close()
	if _, err := cl.Stat("/tmp/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadDir("/tmp"); err != nil {
		t.Fatal(err)
	}
	return tr.seed()
}

// seed returns the recorded requests, each behind a u32 length.
func (r *recordingT) seed() []byte {
	var seed wire.Cursor
	for _, req := range r.reqs {
		seed.PutBytes(req)
	}
	return seed.B
}

// FuzzServerHandle feeds a sequence of length-prefixed requests to one
// server over a live /proc and a memfs directory. No input may panic the server, and every
// response must open with a well-formed error header: a code and a
// length-prefixed message.
func FuzzServerHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add(clientSession(f))
	f.Add(memfsSession(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		srv, _ := fuzzServer(t)
		reqs := wire.Cursor{B: in}
		for i := 0; i < 64 && reqs.Len() > 0; i++ {
			req := reqs.View()
			if reqs.Err != nil {
				return
			}
			resp := wire.Cursor{B: srv.Handle(req)}
			resp.U32()
			resp.Str()
			if resp.Err != nil {
				t.Fatalf("request %d: malformed response header % x", i, resp.B)
			}
		}
	})
}
