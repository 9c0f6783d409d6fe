package procfs2_test

import (
	"testing"

	"repro"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vfs"
)

// TestSnapshotChurnUnderRead pins the coherence contract of the
// /procx/snapshot read cache: the table is walked when offset zero is read
// and every later offset is served from that one encoding, so a reader
// paging through the file in small pieces sees the pre-churn table even
// when processes are created in between — never a byte stream mixing two
// sweeps. Rewinding to offset zero deliberately takes a fresh snapshot.
func TestSnapshotChurnUnderRead(t *testing.T) {
	s := repro.NewSystem(repro.Options{NCPU: 1})
	for i := 0; i < 4; i++ {
		if _, err := s.SpawnProg("pop", spin, types.UserCred(100, 10)); err != nil {
			t.Fatal(err)
		}
	}
	preRev := s.K.TableRev()
	prePids := map[int]bool{}
	for _, p := range s.K.Procs() {
		prePids[p.Pid] = true
	}

	f := openf(t, s, "/procx/"+procfs2.RootSnapshot, vfs.ORead)
	defer f.Close()

	// First piece: a deliberately tiny read at offset zero takes the
	// snapshot and returns its head.
	head := make([]byte, 16)
	n, err := f.Pread(head, 0)
	if err != nil || n != len(head) {
		t.Fatalf("head read: n=%d err=%v", n, err)
	}

	// Churn the table mid-sweep: a fork and an exit both bump the
	// revision.
	newP, err := s.SpawnProg("late", spin, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	if s.K.TableRev() == preRev {
		t.Fatal("spawn did not bump the table revision; churn is vacuous")
	}

	// Page through the rest in small pieces.
	buf := append([]byte(nil), head[:n]...)
	for {
		chunk := make([]byte, 23) // odd size: offsets land mid-record
		n, err := f.Pread(chunk, int64(len(buf)))
		if err == vfs.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read at %d: %v", len(buf), err)
		}
		buf = append(buf, chunk[:n]...)
	}

	var sn procfs.PrSnap
	err = procfs2.DecodeSnapInto(buf, &sn)
	rev, recs := sn.Rev, sn.Procs
	if err != nil {
		t.Fatalf("paged snapshot does not decode (sweeps mixed): %v", err)
	}
	if rev != preRev {
		t.Fatalf("paged snapshot rev = %d, want pre-churn %d", rev, preRev)
	}
	for _, r := range recs {
		if r.Info.Pid == newP.Pid {
			t.Fatalf("pid %d forked mid-sweep appears in the pre-churn snapshot", newP.Pid)
		}
		if !prePids[r.Info.Pid] {
			t.Fatalf("pid %d in snapshot but not in pre-churn table", r.Info.Pid)
		}
	}

	// Rewind semantics: offset zero takes a fresh sweep that does see the
	// new process and the new revision.
	buf2 := make([]byte, 1<<16)
	n, err = f.Pread(buf2, 0)
	if err != nil {
		t.Fatalf("rewind read: %v", err)
	}
	var sn2 procfs.PrSnap
	err = procfs2.DecodeSnapInto(buf2[:n], &sn2)
	rev2, recs2 := sn2.Rev, sn2.Procs
	if err != nil {
		t.Fatalf("rewound snapshot does not decode: %v", err)
	}
	if rev2 == preRev {
		t.Fatal("rewind served the stale snapshot; offset zero must retake")
	}
	found := false
	for _, r := range recs2 {
		if r.Info.Pid == newP.Pid {
			found = true
		}
	}
	if !found {
		t.Fatalf("pid %d missing from the rewound snapshot", newP.Pid)
	}
}
