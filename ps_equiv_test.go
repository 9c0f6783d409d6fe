package repro_test

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"repro"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/tools"
	"repro/internal/types"
	"repro/internal/vfs"
)

// bootMixedTable builds a population exercising every row shape a sweep can
// meet: runners, a sleeper, a stopped process, a zombie, and processes owned
// by several users. The table is static once Run settles.
func bootMixedTable(t *testing.T) *repro.System {
	t.Helper()
	s := repro.NewSystem()
	spawn := func(name, prog string, uid, gid int) {
		t.Helper()
		if _, err := s.SpawnProg(name, prog, types.UserCred(uid, gid)); err != nil {
			t.Fatalf("spawn %s: %v", name, err)
		}
	}
	spawn("runner", "loop:\tjmp loop\n", 100, 10)
	spawn("sleeper", "\tmovi r0, SYS_pause\n\tsyscall\n", 100, 10)
	stopped, err := s.SpawnProg("stopped", "loop:\tjmp loop\n", types.UserCred(200, 20))
	if err != nil {
		t.Fatal(err)
	}
	spawn("keeper", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne spin
	movi r0, SYS_exit	; the child becomes a zombie: keeper never waits
	movi r1, 0
	syscall
spin:	jmp spin
`, 300, 30)
	s.Run(60)
	s.K.PostSignal(stopped, types.SIGSTOP)
	s.Run(10)
	return s
}

// remoteClient serves the system's namespace over a pipe and returns an RFS
// client on a mux transport over it: the same table seen through the remote
// file system.
func remoteClient(t *testing.T, s *repro.System, cred types.Cred) *rfs.Client {
	t.Helper()
	var lock sync.Mutex
	srv := rfs.NewServer(s.NS, &lock)
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
	t.Cleanup(func() {
		mt.Close()
		server.Close()
		<-done
	})
	return rfs.NewClient(mt, cred)
}

// render runs one sweep into a buffer.
func render(t *testing.T, sweep func(tools.ProcClient, *bytes.Buffer) error, cl tools.ProcClient) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep(cl, &buf); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return buf.Bytes()
}

// TestPSBatchedLegacyEquivalence is the output contract of the batched path:
// on a static table, ps via one PIOCSNAP and ps via the per-pid protocol
// print byte-identical listings — locally and over RFS, under root and under
// a user who sees only their own processes.
func TestPSBatchedLegacyEquivalence(t *testing.T) {
	s := bootMixedTable(t)
	creds := map[string]types.Cred{
		"root": types.RootCred(),
		"user": types.UserCred(100, 10),
	}
	for name, cred := range creds {
		cred := cred
		t.Run(name, func(t *testing.T) {
			local := s.Client(cred)
			remote := remoteClient(t, s, cred)
			batched := render(t, func(cl tools.ProcClient, w *bytes.Buffer) error { return tools.PS(cl, w) }, local)
			legacy := render(t, func(cl tools.ProcClient, w *bytes.Buffer) error { return tools.PSLegacy(cl, w) }, local)
			if !bytes.Equal(batched, legacy) {
				t.Errorf("local batched != legacy:\n%s---\n%s", batched, legacy)
			}
			rBatched := render(t, func(cl tools.ProcClient, w *bytes.Buffer) error { return tools.PS(cl, w) }, remote)
			rLegacy := render(t, func(cl tools.ProcClient, w *bytes.Buffer) error { return tools.PSLegacy(cl, w) }, remote)
			if !bytes.Equal(rBatched, rLegacy) {
				t.Errorf("remote batched != legacy:\n%s---\n%s", rBatched, rLegacy)
			}
			if !bytes.Equal(batched, rBatched) {
				t.Errorf("local != remote:\n%s---\n%s", batched, rBatched)
			}
			if len(bytes.TrimSpace(batched)) == 0 {
				t.Error("empty listing")
			}
		})
	}
}

// TestUsageBatchedLegacyEquivalence is the same contract for the usage sweep:
// FleetUsage through PIOCSNAP and FleetUsageLegacy through per-pid PIOCUSAGE
// print identical tables, locally and over RFS. Usage counters only move
// when the simulation steps, so the static table keeps them comparable.
func TestUsageBatchedLegacyEquivalence(t *testing.T) {
	s := bootMixedTable(t)
	local := s.Client(types.RootCred())
	remote := remoteClient(t, s, types.RootCred())
	batched := render(t, func(cl tools.ProcClient, w *bytes.Buffer) error { return tools.FleetUsage(cl, w) }, local)
	legacy := render(t, func(cl tools.ProcClient, w *bytes.Buffer) error { return tools.FleetUsageLegacy(cl, w) }, local)
	if !bytes.Equal(batched, legacy) {
		t.Errorf("local batched != legacy:\n%s---\n%s", batched, legacy)
	}
	rBatched := render(t, func(cl tools.ProcClient, w *bytes.Buffer) error { return tools.FleetUsage(cl, w) }, remote)
	if !bytes.Equal(batched, rBatched) {
		t.Errorf("local != remote:\n%s---\n%s", batched, rBatched)
	}
}

// TestSnapshotOverRFS drives PIOCSNAP itself through the wire codec: the
// records, the revision token and the churn bit must all survive the round
// trip, including a pid-filtered request.
func TestSnapshotOverRFS(t *testing.T) {
	s := bootMixedTable(t)
	remote := remoteClient(t, s, types.RootCred())
	rf, err := remote.Open("/proc", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	lf, err := s.Client(types.RootCred()).Open("/proc", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()

	var lsn, rsn procfs.PrSnap
	lsn.WithUsage, rsn.WithUsage = true, true
	if err := lf.Ioctl(procfs.PIOCSNAP, &lsn); err != nil {
		t.Fatal(err)
	}
	if err := rf.Ioctl(procfs.PIOCSNAP, &rsn); err != nil {
		t.Fatal(err)
	}
	if rsn.Rev != lsn.Rev || rsn.Churned != lsn.Churned {
		t.Fatalf("token skew: remote rev=%d churned=%v, local rev=%d churned=%v",
			rsn.Rev, rsn.Churned, lsn.Rev, lsn.Churned)
	}
	if len(rsn.Procs) != len(lsn.Procs) {
		t.Fatalf("record counts: remote %d, local %d", len(rsn.Procs), len(lsn.Procs))
	}
	for i := range lsn.Procs {
		if lsn.Procs[i] != rsn.Procs[i] {
			t.Fatalf("record %d skewed by the wire:\nlocal  %+v\nremote %+v",
				i, lsn.Procs[i], rsn.Procs[i])
		}
	}

	// A pid-filtered request survives the trip too.
	want := lsn.Procs[0].Info.Pid
	filtered := procfs.PrSnap{Pids: []int{want}}
	if err := rf.Ioctl(procfs.PIOCSNAP, &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Procs) != 1 || filtered.Procs[0].Info.Pid != want {
		t.Fatalf("filtered remote snapshot = %+v", filtered.Procs)
	}

	// Churn the table and pass the stale token back: the churn bit must
	// come back set through the codec.
	p, err := s.SpawnProg("late", "loop:\tjmp loop\n", types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	stale := procfs.PrSnap{Rev: rsn.Rev}
	if err := rf.Ioctl(procfs.PIOCSNAP, &stale); err != nil {
		t.Fatal(err)
	}
	if !stale.Churned {
		t.Fatal("table churned but the remote token did not notice")
	}
	seen := false
	for _, rec := range stale.Procs {
		seen = seen || rec.Info.Pid == p.Pid
	}
	if !seen {
		t.Fatal("newly spawned process missing from the re-snapshot")
	}
}
