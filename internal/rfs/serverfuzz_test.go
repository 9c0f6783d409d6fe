package rfs_test

import (
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/mem"
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
// space holding the flat /proc alone, at "/": a request reaches every /proc
// operation but no memfs file, which a write at a hostile offset would grow
// to any size. Waits for a stop are cut to a few thousand scheduler passes,
// so a PIOCWSTOP on a target that never stops ends quickly.
func fuzzServer(t testing.TB) (*rfs.Server, *kernel.Proc) {
	s := repro.NewSystem(repro.Options{NCPU: 1})
	t.Cleanup(s.Close)
	s.Proc.MaxWait = 2000
	p, err := s.SpawnProg("pauser", pauser, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	ns := vfs.NewNS(s.FS.Root())
	ns.MountLocked("/", s.Proc.Root(), s.K.GlobalLocker())
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
// a u32 length: the seed of FuzzServerHandle.
func clientSession(t testing.TB) []byte {
	srv, p := fuzzServer(t)
	tr := &recordingT{s: srv}
	cl := rfs.NewClient(tr, types.RootCred())
	name := "/" + procfs.PidName(p.Pid)
	if _, err := cl.ReadDir("/"); err != nil {
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
	d, err := cl.Open("/", vfs.ORead)
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
	var seed wire.Cursor
	for _, req := range tr.reqs {
		seed.PutBytes(req)
	}
	return seed.B
}

// FuzzServerHandle feeds a sequence of length-prefixed requests to one
// server over a live /proc. No input may panic the server, and every
// response must open with a well-formed error header: a code and a
// length-prefixed message.
func FuzzServerHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add(clientSession(f))
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
