package procfs_test

import (
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// snapOpen opens the /proc directory itself — the PIOCSNAP handle.
func snapOpen(t *testing.T, s *repro.System, cred types.Cred) *vfs.File {
	t.Helper()
	f, err := s.Client(cred).Open("/proc", vfs.ORead)
	if err != nil {
		t.Fatalf("open /proc: %v", err)
	}
	return f
}

// forever forks short-lived children and reaps them, endlessly: the table
// churns at every few scheduler steps.
const forever = `
loop:	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit	; child exits at once
	movi r1, 0
	syscall
parent:	movi r0, SYS_wait
	movi r1, 0
	syscall
	jmp loop
`

// TestSnapshotStaticTable pins the easy half of the revision contract: with
// no table changes between two snapshots, the token matches, Churned stays
// false, and the records are identical.
func TestSnapshotStaticTable(t *testing.T) {
	s := repro.NewSystem()
	for i := 0; i < 3; i++ {
		if _, err := s.SpawnProg("stat", spin, types.UserCred(100+i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(10)
	f := snapOpen(t, s, types.RootCred())
	defer f.Close()

	var a procfs.PrSnap
	if err := f.Ioctl(procfs.PIOCSNAP, &a); err != nil {
		t.Fatal(err)
	}
	if a.Churned {
		t.Fatal("first snapshot (no prior token) reported churn")
	}
	if len(a.Procs) < 4 { // init + 3 spinners
		t.Fatalf("only %d records", len(a.Procs))
	}
	b := procfs.PrSnap{Rev: a.Rev}
	if err := f.Ioctl(procfs.PIOCSNAP, &b); err != nil {
		t.Fatal(err)
	}
	if b.Churned || b.Rev != a.Rev {
		t.Fatalf("static table churned: rev %d -> %d, churned %v", a.Rev, b.Rev, b.Churned)
	}
	if len(a.Procs) != len(b.Procs) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Procs), len(b.Procs))
	}
	for i := range a.Procs {
		if a.Procs[i].Info != b.Procs[i].Info {
			t.Fatalf("record %d differs:\n%+v\nvs\n%+v", i, a.Procs[i].Info, b.Procs[i].Info)
		}
	}
}

// TestSnapshotUnderChurn races PIOCSNAP against a continuous fork/exit storm:
// every snapshot must be internally consistent — no pid listed twice, no
// reaped process resurrected — and the revision token must report the churn.
func TestSnapshotUnderChurn(t *testing.T) {
	s := repro.NewSystem()
	for i := 0; i < 3; i++ {
		if _, err := s.SpawnProg("churner", forever, types.UserCred(100+i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	f := snapOpen(t, s, types.RootCred())
	defer f.Close()

	var sn procfs.PrSnap
	churned := 0
	for i := 0; i < 400; i++ {
		s.Step()
		prev := sn.Rev
		if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		seen := make(map[int]bool, len(sn.Procs))
		for _, rec := range sn.Procs {
			if seen[rec.Info.Pid] {
				t.Fatalf("step %d: pid %d listed twice", i, rec.Info.Pid)
			}
			seen[rec.Info.Pid] = true
			switch rec.Info.State {
			case 'R', 'S', 'T', 'Z':
			default:
				t.Fatalf("step %d: pid %d in impossible state %c", i, rec.Info.Pid, rec.Info.State)
			}
		}
		// The token must agree with the kernel's own account of churn.
		if prev != 0 {
			if sn.Churned != (prev != sn.Rev) {
				t.Fatalf("step %d: churned=%v but rev %d -> %d", i, sn.Churned, prev, sn.Rev)
			}
		}
		if sn.Churned {
			churned++
		}
	}
	if churned == 0 {
		t.Fatal("fork/exit storm never tripped the revision token")
	}
}

// TestSnapshotSkipsReaped holds the snapshot handle across a target's exit
// and reap: once reaped the pid must vanish from the records (and nothing
// may panic on its carcass).
func TestSnapshotSkipsReaped(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("brief", "\tmovi r0, SYS_exit\n\tmovi r1, 0\n\tsyscall\n",
		types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	f := snapOpen(t, s, types.RootCred())
	defer f.Close()

	listed := func() bool {
		var sn procfs.PrSnap
		if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
			t.Fatal(err)
		}
		for _, rec := range sn.Procs {
			if rec.Info.Pid == p.Pid {
				return true
			}
		}
		return false
	}
	if !listed() {
		t.Fatal("live target missing from snapshot")
	}
	s.WaitExit(p)
	s.Run(5)
	if p.State() != kernel.PGone {
		t.Fatalf("target not reaped: state %v", p.State())
	}
	if listed() {
		t.Fatal("reaped pid still in snapshot")
	}
}

// TestSnapshotVisibility applies the /proc permission rule to the batched
// path: a non-super caller's snapshot lists exactly the processes it could
// have opened one at a time.
func TestSnapshotVisibility(t *testing.T) {
	s := repro.NewSystem()
	mine, err := s.SpawnProg("mine", spin, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.SpawnProg("other", spin, types.UserCred(200, 20))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	f := snapOpen(t, s, types.UserCred(100, 10))
	defer f.Close()
	var sn procfs.PrSnap
	if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
		t.Fatal(err)
	}
	for _, rec := range sn.Procs {
		if rec.Info.Pid == other.Pid {
			t.Fatal("snapshot revealed another user's process")
		}
		if rec.Info.UID != 100 {
			t.Fatalf("snapshot leaked pid %d (uid %d)", rec.Info.Pid, rec.Info.UID)
		}
	}
	found := false
	for _, rec := range sn.Procs {
		found = found || rec.Info.Pid == mine.Pid
	}
	if !found {
		t.Fatal("caller's own process missing from snapshot")
	}
}

// TestSnapshotPidFilter restricts the walk to an explicit pid set.
func TestSnapshotPidFilter(t *testing.T) {
	s := repro.NewSystem()
	a, _ := s.SpawnProg("a", spin, types.UserCred(100, 10))
	s.SpawnProg("b", spin, types.UserCred(100, 10))
	s.Run(5)
	f := snapOpen(t, s, types.RootCred())
	defer f.Close()
	sn := procfs.PrSnap{Pids: []int{a.Pid}}
	if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
		t.Fatal(err)
	}
	if len(sn.Procs) != 1 || sn.Procs[0].Info.Pid != a.Pid {
		t.Fatalf("filtered snapshot = %+v", sn.Procs)
	}
	// The record slice is sized by the filter, not the whole table.
	if cap(sn.Procs) != 1 {
		t.Fatalf("filtered snapshot reserved %d records for one pid", cap(sn.Procs))
	}
}

// TestSnapshotHandleErrno pins the error surface of the /proc root handle:
// reads and writes say EISDIR, foreign ioctls say ENOTTY, a nil argument is
// EINVAL, and a closed handle is EBADF.
func TestSnapshotHandleErrno(t *testing.T) {
	s := repro.NewSystem()
	f := snapOpen(t, s, types.RootCred())
	if _, err := f.Read(make([]byte, 8)); err != vfs.ErrIsDir {
		t.Fatalf("read: %v", err)
	}
	if err := f.Ioctl(procfs.PIOCSTATUS, nil); err != vfs.ErrNoIoctl {
		t.Fatalf("foreign ioctl: %v", err)
	}
	if err := f.Ioctl(procfs.PIOCSNAP, nil); err != vfs.ErrInval {
		t.Fatalf("nil arg: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := f.Ioctl(procfs.PIOCSNAP, &procfs.PrSnap{}); err != vfs.ErrBadFD {
		t.Fatalf("ioctl after close: %v", err)
	}
}

// TestSnapshotUsageMatchesPerPid cross-checks the batched usage records
// against PIOCUSAGE on the same static table.
func TestSnapshotUsageMatchesPerPid(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("worker", spin, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	f := snapOpen(t, s, types.RootCred())
	defer f.Close()
	sn := procfs.PrSnap{Pids: []int{p.Pid}, WithUsage: true}
	if err := f.Ioctl(procfs.PIOCSNAP, &sn); err != nil {
		t.Fatal(err)
	}
	if len(sn.Procs) != 1 {
		t.Fatalf("%d records", len(sn.Procs))
	}
	pf := rootOpen(t, s, p.Pid)
	defer pf.Close()
	var u procfs.PrUsage
	if err := pf.Ioctl(procfs.PIOCUSAGE, &u); err != nil {
		t.Fatal(err)
	}
	if sn.Procs[0].Usage != u {
		t.Fatalf("usage mismatch:\nsnap %+v\npid  %+v", sn.Procs[0].Usage, u)
	}
}
