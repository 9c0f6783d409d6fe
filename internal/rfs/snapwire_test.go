package rfs_test

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// fixedTable is the 3-process table the PIOCSNAP wire bytes are pinned on:
// a sleeping init, a running worker with usage counters and a negative
// nice, and a zombie with a multi-byte command name.
var fixedTable = []procfs.PrSnapRec{
	{Info: kernel.PSInfo{Pid: 1, PPid: 0, Pgrp: 1, Sid: 1, State: 'S', VSize: 8192,
		Time: 4, Start: 1, NLWP: 1, Comm: "init", Args: "init"},
		Usage: procfs.PrUsage{Usage: kernel.Usage{UserTicks: 3, SysTicks: 1, Syscalls: 9}}},
	{Info: kernel.PSInfo{Pid: 5, PPid: 1, Pgrp: 5, Sid: 5, UID: 100, GID: 10, State: 'R',
		Nice: -3, VSize: 1 << 20, Time: 77, Start: 12, NLWP: 2, Comm: "worker", Args: "worker -n 3"},
		Usage: procfs.PrUsage{Usage: kernel.Usage{UserTicks: 70, SysTicks: 7, Syscalls: 40,
			Faults: 3, Signals: 1, ForkedKids: 2, VolCtx: 5, InvolCtx: 6},
			MinorFaults: 11, COWFaults: 2, WatchRecover: 1, StackGrows: 1}},
	{Info: kernel.PSInfo{Pid: 6, PPid: 5, Pgrp: 5, Sid: 5, UID: 100, GID: 10, State: 'Z',
		Start: 30, Comm: "日本"}},
}

// fixedRev is the revision the fixed table reports.
const fixedRev = 42

// fixedProcRoot stands in for the /proc directory: its one ioctl, PIOCSNAP,
// answers with fixedTable, so the response bytes depend on the codec and
// the framing alone.
type fixedProcRoot struct{}

func (fixedProcRoot) VAttr() (vfs.Attr, error) {
	return vfs.Attr{Type: vfs.VDIR, Mode: 0o555, Nlink: 2}, nil
}

func (fixedProcRoot) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	return fixedProcHandle{}, nil
}

type fixedProcHandle struct{}

func (fixedProcHandle) HRead(p []byte, off int64) (int, error)  { return 0, vfs.ErrIsDir }
func (fixedProcHandle) HWrite(p []byte, off int64) (int, error) { return 0, vfs.ErrIsDir }
func (fixedProcHandle) HClose() error                           { return nil }

func (fixedProcHandle) HIoctl(cmd int, arg interface{}) error {
	sn, ok := arg.(*procfs.PrSnap)
	if cmd != procfs.PIOCSNAP || !ok {
		return vfs.ErrNoIoctl
	}
	sn.Churned = sn.Rev != 0 && sn.Rev != fixedRev
	sn.Rev = fixedRev
	sn.Procs = append(sn.Procs[:0], fixedTable...)
	return nil
}

// fixedServer serves a name space whose /proc is fixedProcRoot, recording
// the last response its Tap sees.
func fixedServer(t *testing.T) (*rfs.Server, *[]byte) {
	t.Helper()
	root := memfs.New(func() int64 { return 0 }).Root()
	if _, err := root.(vfs.DirWriter).VMkdir("proc", 0o555, types.RootCred()); err != nil {
		t.Fatal(err)
	}
	ns := vfs.NewNS(root)
	if err := ns.Mount("/proc", fixedProcRoot{}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	srv := rfs.NewServer(ns, &mu)
	last := new([]byte)
	srv.Tap = func(req, resp []byte) { *last = append([]byte(nil), resp...) }
	return srv, last
}

// snapResponseGolden is the response to a PIOCSNAP (with usage, prior
// revision 7) against fixedTable: status code and empty message, the
// result's length word, then the snapshot — revision, churn flag, count,
// and per record the psinfo and usage blocks.
const snapResponseGolden = "" +
	"00000000000000000000021b000000000000002a00000001000000030000000100000000" +
	"000000010000000100000000000000000000005300000000000000000000200000000000" +
	"0000000400000000000000010000000100000004696e697400000004696e697400000000" +
	"000000030000000000000001000000000000000900000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000005000000010000000500000005" +
	"000000640000000a00000052fffffffd0000000000100000000000000000004d00000000" +
	"0000000c0000000200000006776f726b65720000000b776f726b6572202d6e2033000000" +
	"000000004600000000000000070000000000000028000000000000000300000000000000" +
	"01000000000000000200000000000000050000000000000006000000000000000b000000" +
	"000000000200000000000000010000000000000001000000060000000500000005000000" +
	"05000000640000000a0000005a0000000000000000000000000000000000000000000000" +
	"000000001e0000000000000006e697a5e69cac0000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"0000000000000000000000"

// The PIOCSNAP response is pinned byte for byte, over the direct transport
// and over the multiplexed one, and decodes back to the served table.
func TestSnapResponseGolden(t *testing.T) {
	srv, last := fixedServer(t)
	local := rfs.NewClient(rfs.LocalTransport{S: srv}, types.RootCred())
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(server)
	}()
	defer func() {
		server.Close()
		<-done
	}()
	mt, err := rfs.NewMuxTransport(client)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	muxed := rfs.NewClient(mt, types.RootCred())

	for _, c := range []struct {
		name string
		cl   *rfs.Client
	}{{"local", local}, {"mux", muxed}} {
		f, err := c.cl.Open("/proc", vfs.ORead)
		if err != nil {
			t.Fatal(err)
		}
		sn := procfs.PrSnap{WithUsage: true, Rev: 7}
		if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(*last); got != snapResponseGolden {
			t.Fatalf("%s: PIOCSNAP response\n got %s\nwant %s", c.name, got, snapResponseGolden)
		}
		f.Close()
		want := procfs.PrSnap{WithUsage: true, Rev: fixedRev, Churned: true, Procs: fixedTable}
		if !reflect.DeepEqual(sn, want) {
			t.Fatalf("%s: decoded\n got %+v\nwant %+v", c.name, sn, want)
		}
	}
}

// snapAllocConst bounds the allocations of one PIOCSNAP round trip that do
// not scale with the table: request and response frames, the server's
// decoded argument and table copy, the record slices on both sides.
const snapAllocConst = 20

// One PIOCSNAP round trip over the direct transport allocates the two
// decoded strings per record (command and arguments) plus a constant: the
// table is encoded once into the response and decoded once into
// PrSnap.Procs, with no per-record scratch on either side.
func TestSnapRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	s := repro.NewSystem()
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := s.SpawnProg(fmt.Sprintf("p%d", i), spin, types.UserCred(100, 10)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(4)
	cl := rfs.NewClient(rfs.LocalTransport{S: rfs.NewServer(s.NS, nil)}, types.RootCred())
	f, err := cl.Open("/proc", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs := 0
	allocs := testing.AllocsPerRun(20, func() {
		sn := procfs.PrSnap{WithUsage: true}
		if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
			t.Fatal(err)
		}
		recs = len(sn.Procs)
	})
	if recs < n {
		t.Fatalf("snapshot listed %d processes, spawned %d", recs, n)
	}
	if budget := float64(2*recs + snapAllocConst); allocs > budget {
		t.Fatalf("PIOCSNAP of %d records: %.0f allocations, budget %.0f", recs, allocs, budget)
	}
}

// A PIOCSNAP that fails after the mux server reserved the success header
// behind the tag answers with the error in a rewritten header, and the
// connection carries the next call normally.
func TestMuxSnapFaultRewritesHeader(t *testing.T) {
	fault.Guard(t)
	defer leakCheck(t)()
	s, mt, cleanup := muxSystem(t, nil)
	defer cleanup()
	ctl, err := s.Client(types.RootCred()).Open("/procx/faults", vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Write([]byte("procfs.snap nth=1")); err != nil {
		t.Fatal(err)
	}
	ctl.Close()

	f, err := rfs.NewClient(mt, types.RootCred()).Open("/proc", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sn procfs.PrSnap
	if err := f.Ioctl(procfs.PIOCSNAP, &sn); !errors.Is(err, vfs.ErrAgain) {
		t.Fatalf("PIOCSNAP with procfs.snap armed: %v, want EAGAIN", err)
	}
	if len(sn.Procs) != 0 {
		t.Fatalf("failed snapshot left %d records", len(sn.Procs))
	}
	if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
		t.Fatalf("PIOCSNAP after the spent plan: %v", err)
	}
	if len(sn.Procs) == 0 {
		t.Fatal("retried snapshot is empty")
	}
	if site := fault.Default.Lookup("procfs.snap"); site.Injected() != 1 {
		t.Fatalf("procfs.snap injected %d times, want 1", site.Injected())
	}
}
