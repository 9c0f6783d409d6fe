package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/types"
	"repro/internal/vfs"
)

// familyProg forks twice; one child sleeps and exits, the other dies on a
// division fault; the parent reaps both. It exercises every event kind the
// trace records: syscalls, forks, faults, signals, exits, sched ticks.
const familyProg = `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_sleep	; first child naps then exits
	movi r1, 40
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	movi r0, SYS_fork	; second child crashes
	syscall
	cmpi r0, 0
	jne reap
	movi r1, 1
	movi r2, 0
	div r1, r2
reap:
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
`

// readProcFile slurps one /procx file under root credentials.
func readProcFile(t *testing.T, s *repro.System, path string) []byte {
	t.Helper()
	b, err := s.Client(types.RootCred()).ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

// familyDigest pins the family scenario across commits: the sha256 of the
// per-process stream, the kernel-wide stream and the counters page, each
// prefixed with its length. Two boots of one binary agreeing proves only
// that the binary is deterministic; agreeing with this value proves a
// refactor of the scheduler or the clock moved no event and no timestamp.
const familyDigest = "9bf91e8e200612ee5d1813ce29e46c7f61761a4b4bf83e8fdf23581ac5ccb23b"

// TestKTraceDeterminism boots the same multi-process scenario twice and
// demands byte-identical trace streams: the per-process file read mid-flight,
// the kernel-wide stream after the workload drains, and the counters page.
// All three must also match the golden familyDigest. The simulation
// advertises determinism; the trace is the oracle that checks it.
func TestKTraceDeterminism(t *testing.T) {
	run := func() (perproc, global, stats []byte) {
		s := repro.NewSystem(repro.Options{NCPU: 1}) // bit-for-bit replay: pin the deterministic scheduler
		s.K.EnableKTraceAll(1 << 20)
		if err := s.Install("/bin/family", familyProg, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		var procs []*kernel.Proc
		for i := 0; i < 3; i++ {
			p, err := s.Spawn("/bin/family", []string{fmt.Sprintf("family%d", i)},
				types.UserCred(100+i, 10))
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p)
		}
		// A fixed slice of scheduling: the per-process stream so far must
		// match across boots even with the workload still in flight.
		s.Run(3)
		if !procs[0].Alive() {
			t.Fatal("first family exited before the mid-flight read")
		}
		perproc = readProcFile(t, s, "/procx/"+fmt.Sprint(procs[0].Pid)+"/trace")
		for i, p := range procs {
			if _, err := s.WaitExit(p); err != nil {
				t.Fatalf("family %d stuck: %v", i, err)
			}
		}
		global = readProcFile(t, s, "/procx/trace")
		stats = readProcFile(t, s, "/procx/ktrace")
		return
	}

	p1, g1, st1 := run()
	p2, g2, st2 := run()
	if !bytes.Equal(p1, p2) {
		t.Errorf("per-process streams differ: %d vs %d bytes", len(p1), len(p2))
	}
	if !bytes.Equal(g1, g2) {
		t.Errorf("kernel-wide streams differ: %d vs %d bytes", len(g1), len(g2))
	}
	if !bytes.Equal(st1, st2) {
		t.Errorf("counters pages differ")
	}
	h := sha256.New()
	for _, b := range [][]byte{p1, g1, st1} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != familyDigest {
		t.Errorf("golden digest %s, want %s", got, familyDigest)
	}

	// The streams must be substantive and well-formed, or the comparison
	// proves nothing.
	evs, err := ktrace.Decode(g1)
	if err != nil {
		t.Fatalf("global stream does not decode: %v", err)
	}
	if len(evs) < 50 {
		t.Fatalf("global stream suspiciously small: %d events", len(evs))
	}
	kinds := map[ktrace.Kind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	for _, k := range []ktrace.Kind{ktrace.KSysEntry, ktrace.KSysExit,
		ktrace.KFork, ktrace.KExit, ktrace.KFault, ktrace.KSigPost,
		ktrace.KSigDeliver, ktrace.KLWPState} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in the global stream", k)
		}
	}
	st, err := ktrace.DecodeStats(st1)
	if err != nil {
		t.Fatalf("counters page does not decode: %v", err)
	}
	if st.Emitted == 0 || st.PerSys[kernel.SysFork] == 0 {
		t.Fatalf("counters page empty: %+v", st)
	}

	// The super-user gate on the kernel-wide stream holds.
	if _, err := s2ReadAsUser(t); err != vfs.ErrPerm {
		t.Fatalf("global trace readable without privilege: %v", err)
	}
}

// s2ReadAsUser attempts to open the kernel-wide stream unprivileged.
func s2ReadAsUser(t *testing.T) ([]byte, error) {
	s := repro.NewSystem()
	s.K.EnableKTraceAll(0)
	return s.Client(types.UserCred(100, 10)).ReadFile("/procx/trace")
}
