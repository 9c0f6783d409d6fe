package rfs_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// leakCheck snapshots the goroutine count and returns a func that fails the
// test if the count has not returned to the baseline — the mux transport
// and the concurrent server must not strand goroutines, whatever the wire
// did to them.
func leakCheck(t *testing.T) func() {
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<17)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// muxSystem boots a system, exports it over one net.Pipe connection served
// by the concurrent mux path, and returns the shared transport.
func muxSystem(t *testing.T, faults *rfs.Faults) (*repro.System, *rfs.MuxTransport, func()) {
	t.Helper()
	s := repro.NewSystem()
	var lock sync.Mutex
	srv := rfs.NewServer(s.NS, &lock)
	srv.MuxFaults = faults
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(server)
	}()
	mt, err := rfs.NewMuxTransport(client)
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		mt.Close()
		server.Close()
		<-done
		s.Close() // at NCPU>1 its scheduler workers would outlive the test
	}
	return s, mt, cleanup
}

// Many goroutines pipeline mixed operations — read, write, stat, readdir,
// ioctl, poll — on one connection, one client per goroutine. Responses
// complete out of order on the server; per-goroutine unique content catches
// any tag mixup. Run under -race by `make race`.
func TestMuxPipelineStress(t *testing.T) {
	defer leakCheck(t)()
	s, mt, cleanup := muxSystem(t, nil)
	defer cleanup()

	p, err := s.SpawnProg("stressee", spin, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)

	const workers = 8
	const rounds = 40
	for g := 0; g < workers; g++ {
		s.FS.WriteFile(fmt.Sprintf("/tmp/g%d", g),
			[]byte(fmt.Sprintf("content-of-goroutine-%d", g)), 0o644, 0, 0)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := rfs.NewClient(mt, types.RootCred())
			path := fmt.Sprintf("/tmp/g%d", g)
			want := fmt.Sprintf("content-of-goroutine-%d", g)
			for i := 0; i < rounds; i++ {
				attr, err := cl.Stat(path)
				if err != nil || attr.Size != int64(len(want)) {
					errs <- fmt.Errorf("g%d stat: %+v %v", g, attr, err)
					return
				}
				f, err := cl.Open(path, vfs.ORead|vfs.OWrite)
				if err != nil {
					errs <- fmt.Errorf("g%d open: %v", g, err)
					return
				}
				buf := make([]byte, 64)
				n, err := f.Pread(buf, 0)
				if err != nil || string(buf[:n]) != want {
					errs <- fmt.Errorf("g%d read got %q (%v): tag mixup?", g, buf[:n], err)
					return
				}
				if _, err := f.Pwrite([]byte(want), 0); err != nil {
					errs <- fmt.Errorf("g%d write: %v", g, err)
					return
				}
				f.Poll(vfs.PollIn) // plain files report nothing; must not error the stream
				if err := f.Close(); err != nil {
					errs <- fmt.Errorf("g%d close: %v", g, err)
					return
				}
				ents, err := cl.ReadDir("/tmp")
				if err != nil || len(ents) != workers {
					errs <- fmt.Errorf("g%d readdir: %d entries, %v", g, len(ents), err)
					return
				}
				pf, err := cl.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead)
				if err != nil {
					errs <- fmt.Errorf("g%d proc open: %v", g, err)
					return
				}
				var st kernel.ProcStatus
				if err := pf.Ioctl(procfs.PIOCSTATUS, &st); err != nil || st.Pid != p.Pid {
					errs <- fmt.Errorf("g%d ioctl: pid=%d %v", g, st.Pid, err)
					return
				}
				pf.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := mt.Stats(); st.Sent < int64(workers*rounds*5) {
		t.Fatalf("sent = %d: the ops did not go through the mux transport", st.Sent)
	}
}

// The same pipelining over real TCP.
func TestMuxOverTCP(t *testing.T) {
	defer leakCheck(t)()
	s := repro.NewSystem()
	s.FS.WriteFile("/tmp/shared", []byte("over tcp"), 0o644, 0, 0)
	var lock sync.Mutex
	srv := rfs.NewServer(s.NS, &lock)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer ln.Close()
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer conn.Close()
				srv.ServeConn(conn)
			}()
		}
	}()

	// Mux client.
	mconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mt, err := rfs.NewMuxTransport(mconn)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := rfs.NewClient(mt, types.RootCred())
			for i := 0; i < 25; i++ {
				f, err := cl.Open("/tmp/shared", vfs.ORead)
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 16)
				n, err := f.Pread(buf, 0)
				if err != nil || string(buf[:n]) != "over tcp" {
					t.Errorf("read: %q %v", buf[:n], err)
				}
				f.Close()
			}
		}()
	}
	wg.Wait()
	mt.Close()
	mconn.Close()
	ln.Close()
	served.Wait()
}

// The unmodified tools still run over the new transport: remote ps via
// PIOCPSINFO through a pipelined connection.
func TestMuxRemotePS(t *testing.T) {
	defer leakCheck(t)()
	s, mt, cleanup := muxSystem(t, nil)
	defer cleanup()
	s.SpawnProg("app1", spin, types.UserCred(100, 10))
	s.SpawnProg("app2", spin, types.UserCred(200, 20))
	s.Run(3)
	cl := rfs.NewClient(mt, types.RootCred())
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
	for _, want := range []string{"sched", "init", "app1", "app2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("remote ps over mux missing %q: %v", want, lines)
		}
	}
}
