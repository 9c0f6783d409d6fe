package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/types"
)

// snapBoot boots a deterministic system with tracing on and the family
// workload mid-flight: two copies of familyProg spawned and a few passes run,
// so the checkpoint lands with forks pending, a sleeper queued and a fault on
// the way — the interesting case for restore.
func snapBoot(t *testing.T) (*repro.System, []*kernel.Proc) {
	t.Helper()
	s := repro.NewSystem(repro.Options{NCPU: 1})
	s.K.EnableKTraceAll(1 << 20)
	if err := s.Install("/bin/family", familyProg, 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	var procs []*kernel.Proc
	for i := 0; i < 2; i++ {
		p, err := s.Spawn("/bin/family", []string{fmt.Sprintf("family%d", i)},
			types.UserCred(100+i, 10))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	s.Run(5)
	for _, p := range procs {
		if !p.Alive() {
			t.Fatal("family exited before the checkpoint")
		}
	}
	return s, procs
}

// tableDump renders the process table deterministically: one line per
// process in table order.
func tableDump(s *repro.System) []byte {
	var b bytes.Buffer
	for _, p := range s.K.Procs() {
		fmt.Fprintf(&b, "%d %d %q state=%d exit=%d vsz=%d sys=%d flt=%d sig=%d\n",
			p.Pid, p.PPid(), p.Comm, p.State(), p.ExitStatus,
			p.VirtSize(), p.Usage.Syscalls, p.Usage.Faults, p.Usage.Signals)
	}
	return b.Bytes()
}

// finishFamily drains the workload and returns everything the run produced:
// the kernel-wide trace, the counters page, the final table and the clock.
func finishFamily(t *testing.T, s *repro.System, procs []*kernel.Proc) (global, stats, table []byte, clock int64) {
	t.Helper()
	for i, p := range procs {
		if _, err := s.WaitExit(p); err != nil {
			t.Fatalf("family %d stuck: %v", i, err)
		}
	}
	global = readProcFile(t, s, "/procx/trace")
	stats = readProcFile(t, s, "/procx/ktrace")
	return global, stats, tableDump(s), s.K.Now()
}

// TestSnapshotRestoreDeterminism checkpoints a run mid-flight, lets it finish,
// rewinds to the checkpoint and re-runs it — twice, because a snapshot must
// stay reusable — demanding a bit-identical trace stream, counters page,
// final process table and clock every time.
func TestSnapshotRestoreDeterminism(t *testing.T) {
	s, procs := snapBoot(t)

	sn, err := s.K.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	fsSt := s.FS.SaveState()

	g1, st1, tb1, clk1 := finishFamily(t, s, procs)

	for round := 1; round <= 2; round++ {
		if err := s.K.Restore(sn); err != nil {
			t.Fatalf("restore %d: %v", round, err)
		}
		s.FS.RestoreState(fsSt)
		if err := s.K.CheckInvariants(); err != nil {
			t.Fatalf("restore %d invariants: %v", round, err)
		}
		for _, p := range procs {
			if !p.Alive() {
				t.Fatalf("restore %d: family not revived", round)
			}
		}
		g2, st2, tb2, clk2 := finishFamily(t, s, procs)
		if !bytes.Equal(g1, g2) {
			t.Errorf("restore %d: trace streams differ: %d vs %d bytes", round, len(g1), len(g2))
		}
		if !bytes.Equal(st1, st2) {
			t.Errorf("restore %d: counters pages differ", round)
		}
		if !bytes.Equal(tb1, tb2) {
			t.Errorf("restore %d: final tables differ:\n%s\nvs\n%s", round, tb1, tb2)
		}
		if clk1 != clk2 {
			t.Errorf("restore %d: final clocks differ: %d vs %d", round, clk1, clk2)
		}
	}

	if len(g1) == 0 || len(tb1) == 0 {
		t.Fatal("empty run products; the comparison proves nothing")
	}
}

// TestSnapshotRestoresFiles verifies the memfs half of a checkpoint: a file
// written after the snapshot is rewound to its checkpoint contents, and one
// deleted after the snapshot comes back.
func TestSnapshotRestoresFiles(t *testing.T) {
	s, _ := snapBoot(t)
	if err := s.FS.WriteFile("/tmp/keep", []byte("before"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	sn, err := s.K.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fsSt := s.FS.SaveState()

	if err := s.FS.WriteFile("/tmp/keep", []byte("after: longer contents"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile("/tmp/fresh", []byte("post-checkpoint"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}

	if err := s.K.Restore(sn); err != nil {
		t.Fatal(err)
	}
	s.FS.RestoreState(fsSt)
	got, err := s.Client(types.RootCred()).ReadFile("/tmp/keep")
	if err != nil {
		t.Fatalf("restored file: %v", err)
	}
	if string(got) != "before" {
		t.Fatalf("restored contents %q, want %q", got, "before")
	}
	if _, err := s.Client(types.RootCred()).ReadFile("/tmp/fresh"); err == nil {
		t.Fatal("post-checkpoint file survived the rewind")
	}
}

// TestSnapshotRefusesSMP pins the deterministic-only contract.
func TestSnapshotRefusesSMP(t *testing.T) {
	s := repro.NewSystem(repro.Options{NCPU: 2})
	defer s.Close()
	if _, err := s.K.Snapshot(); err != kernel.ErrSnapshotSMP {
		t.Fatalf("Snapshot on SMP kernel: err=%v, want ErrSnapshotSMP", err)
	}
	if err := s.K.Restore(&kernel.Snapshot{}); err != kernel.ErrSnapshotSMP {
		t.Fatalf("Restore on SMP kernel: err=%v, want ErrSnapshotSMP", err)
	}
}
