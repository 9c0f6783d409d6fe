package rfs_test

import (
	"net"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

const spin = `
loop:	jmp loop
`

// remoteSystem boots a "remote machine" and returns a client connected to
// it via the in-process transport.
func remoteSystem(t *testing.T, cred types.Cred) (*repro.System, *rfs.Client) {
	t.Helper()
	s := repro.NewSystem()
	srv := rfs.NewServer(s.NS, nil)
	return s, rfs.NewClient(rfs.LocalTransport{S: srv}, cred)
}

func TestRemoteFileAccess(t *testing.T) {
	s, cl := remoteSystem(t, types.RootCred())
	s.FS.WriteFile("/tmp/hello", []byte("remote content"), 0o644, 0, 0)

	attr, err := cl.Stat("/tmp/hello")
	if err != nil || attr.Size != 14 {
		t.Fatalf("stat: %+v %v", attr, err)
	}
	f, err := cl.Open("/tmp/hello", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := f.Pread(buf, 0)
	if err != nil || string(buf[:n]) != "remote content" {
		t.Fatalf("read: %q %v", buf[:n], err)
	}
	f.Close()

	ents, err := cl.ReadDir("/tmp")
	if err != nil || len(ents) != 1 || ents[0].Name != "hello" {
		t.Fatalf("readdir: %+v %v", ents, err)
	}
}

// C9: remote process inspection and control through /proc over RFS.
func TestRFSRemoteControl(t *testing.T) {
	s, cl := remoteSystem(t, types.RootCred())
	p, err := s.SpawnProg("victim", spin, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)

	// The remote /proc directory lists the remote processes.
	ents, err := cl.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range ents {
		names[e.Name] = true
	}
	if !names[procfs.PidName(p.Pid)] {
		t.Fatal("remote process not listed")
	}

	f, err := cl.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Remote PIOCSTATUS through the marshalling registry.
	var st kernel.ProcStatus
	if err := f.Ioctl(procfs.PIOCSTATUS, &st); err != nil {
		t.Fatal(err)
	}
	if st.Pid != p.Pid {
		t.Fatalf("remote status pid = %d", st.Pid)
	}
	// Remote stop and run.
	if err := f.Ioctl(procfs.PIOCSTOP, &st); err != nil {
		t.Fatal(err)
	}
	if st.Why != kernel.WhyRequested {
		t.Fatalf("remote stop: %+v", st)
	}
	if !p.Rep().Stopped() {
		t.Fatal("remote stop did not stop the local process")
	}
	// Remote address-space read and breakpoint write, plain read/write.
	word := make([]byte, 4)
	if _, err := f.Pread(word, 0x80000000); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite(word, 0x80000000); err != nil {
		t.Fatal(err)
	}
	// Remote memory map.
	var maps []procfs.PrMap
	if err := f.Ioctl(procfs.PIOCMAP, &maps); err != nil {
		t.Fatal(err)
	}
	if len(maps) < 2 {
		t.Fatalf("remote map: %d entries", len(maps))
	}
	// Remote run.
	if err := f.Ioctl(procfs.PIOCRUN, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if p.Rep().Stopped() {
		t.Fatal("remote run did not resume")
	}
	// Remote kill.
	sig := types.SIGKILL
	if err := f.Ioctl(procfs.PIOCKILL, &sig); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
}

// Remote security: credentials cross the wire and the /proc checks apply.
func TestRFSRemoteSecurity(t *testing.T) {
	s, _ := remoteSystem(t, types.RootCred())
	p, _ := s.SpawnProg("guarded", spin, types.UserCred(100, 10))
	s.Run(2)
	srv := rfs.NewServer(s.NS, nil)
	stranger := rfs.NewClient(rfs.LocalTransport{S: srv}, types.UserCred(999, 99))
	if _, err := stranger.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead); err != vfs.ErrPerm {
		t.Fatalf("stranger open: %v", err)
	}
	owner := rfs.NewClient(rfs.LocalTransport{S: srv}, types.UserCred(100, 10))
	f, err := owner.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// The restructured interface crosses the network with no codecs at all:
// status reads and ctl writes are plain bytes.
func TestRFSRestructuredInterface(t *testing.T) {
	s, cl := remoteSystem(t, types.RootCred())
	p, _ := s.SpawnProg("rv", spin, types.UserCred(100, 10))
	s.Run(2)

	dir := "/procx/" + procfs.PidName(p.Pid)
	ctl, err := cl.Open(dir+"/ctl", vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	// Batched stop via one remote write.
	if _, err := ctl.Pwrite(ctlStop(), 0); err != nil {
		t.Fatal(err)
	}
	if !p.Rep().Stopped() {
		t.Fatal("remote ctl stop failed")
	}
	status, err := cl.Open(dir+"/status", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	defer status.Close()
	buf := make([]byte, 4096)
	n, err := status.Pread(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeStatus(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if st.Pid != p.Pid || st.Why != kernel.WhyRequested {
		t.Fatalf("remote status: %+v", st)
	}
	if _, err := ctl.Pwrite(ctlRun(), 0); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if p.Rep().Stopped() {
		t.Fatal("remote ctl run failed")
	}
}

// Unknown ioctls cannot cross the network (no codec).
func TestRFSUnknownIoctlRejected(t *testing.T) {
	s, cl := remoteSystem(t, types.RootCred())
	p, _ := s.SpawnProg("x", spin, types.UserCred(100, 10))
	s.Run(2)
	f, err := cl.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pr *kernel.Proc
	if err := f.Ioctl(procfs.PIOCGETPR, &pr); err != vfs.ErrNoIoctl {
		t.Fatalf("PIOCGETPR remotely: %v (a pointer cannot cross the wire)", err)
	}
}

// Real TCP transport: the same protocol over a socket, with the server
// serialized by a lock.
func TestRFSOverTCP(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("nettarget", spin, types.UserCred(100, 10))
	s.Run(2)

	var lock sync.Mutex
	srv := rfs.NewServer(s.NS, &lock)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		srv.ServeConn(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mt, err := rfs.NewMuxTransport(conn)
	if err != nil {
		t.Fatal(err)
	}
	cl := rfs.NewClient(mt, types.RootCred())
	var st kernel.ProcStatus
	f, err := cl.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Ioctl(procfs.PIOCSTOP, &st); err != nil {
		t.Fatal(err)
	}
	if st.Pid != p.Pid || st.Why != kernel.WhyRequested {
		t.Fatalf("tcp remote stop: %+v", st)
	}
	if err := f.Ioctl(procfs.PIOCRUN, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mt.Close()
	conn.Close()
	<-done
}

// Remote ps: the unmodified tools run against remote /proc because the
// remote client yields ordinary vfs.Files. (Demonstrated via PIOCPSINFO.)
func TestRemotePS(t *testing.T) {
	s, cl := remoteSystem(t, types.RootCred())
	s.SpawnProg("app1", spin, types.UserCred(100, 10))
	s.SpawnProg("app2", spin, types.UserCred(200, 20))
	s.Run(3)
	ents, err := cl.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range ents {
		f, err := cl.Open("/proc/"+e.Name, vfs.ORead)
		if err != nil {
			continue
		}
		var info kernel.PSInfo
		if err := f.Ioctl(procfs.PIOCPSINFO, &info); err == nil {
			lines = append(lines, info.Comm)
		}
		f.Close()
	}
	joined := strings.Join(lines, " ")
	for _, want := range []string{"sched", "init", "pageout", "app1", "app2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("remote ps missing %q: %v", want, lines)
		}
	}
}
