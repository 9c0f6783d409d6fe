package kernel_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/memfs"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/xout"
)

// Random machine code must never break the kernel: whatever a process
// executes — illegal instructions, wild jumps, random system calls with
// garbage arguments — the worst outcome is its own death. The kernel's
// invariants hold and every process remains killable.
func TestRandomProgramsCannotBreakKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1991)) // deterministic
	for trial := 0; trial < 40; trial++ {
		var k *kernel.Kernel
		fs := memfs.New(func() int64 {
			if k == nil {
				return 0
			}
			return k.Now()
		})
		ns := vfs.NewNS(fs.Root())
		k = kernel.New(ns, kernel.Config{})
		k.BootSystemProcs()
		fs.MkdirAll("/bin", 0o755)
		fs.MkdirAll("/tmp", 0o777)

		// A random text segment.
		text := make([]byte, 256)
		for i := 0; i < len(text); i += 4 {
			w := rng.Uint32()
			if rng.Intn(4) == 0 {
				// Bias toward plausible opcodes so some programs run a while.
				w = (w%0x2F)<<24 | rng.Uint32()&0x00FFFFFF
			}
			binary.BigEndian.PutUint32(text[i:], w)
		}
		img := &xout.File{Entry: xout.TextBase, Text: text, BSSSize: 4096}
		if err := fs.WriteFile("/bin/chaos", img.Marshal(), 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		p, err := k.Spawn("/bin/chaos", nil, types.UserCred(100, 10), nil)
		if err != nil {
			t.Fatalf("trial %d: spawn: %v", trial, err)
		}
		// Run a while; the program may die of its own faults or loop.
		k.Run(2000)
		// Invariants: the process is alive, zombie, or reaped; the clock
		// advanced; nothing panicked to get here.
		switch p.State() {
		case kernel.PAlive, kernel.PZombie, kernel.PGone:
		default:
			t.Fatalf("trial %d: bad state %v", trial, p.State())
		}
		// Whatever it is doing, SIGKILL ends it.
		if p.Alive() {
			k.PostSignal(p, types.SIGKILL)
			if err := k.RunUntil(func() bool { return !p.Alive() }, 2_000_000); err != nil {
				t.Fatalf("trial %d: unkillable process: %v", trial, err)
			}
		}
	}
}

// Random register states under single-stepping: the /proc debugger machinery
// survives stepping through garbage.
func TestRandomStepping(t *testing.T) {
	f := boot(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		text := make([]byte, 64)
		for i := 0; i < len(text); i += 4 {
			binary.BigEndian.PutUint32(text[i:], (rng.Uint32()%0x2F)<<24|rng.Uint32()&0xFFFFFF)
		}
		img := &xout.File{Entry: xout.TextBase, Text: text, BSSSize: 4096}
		f.FS.WriteFile("/bin/step", img.Marshal(), 0o755, 0, 0)
		p, err := f.K.Spawn("/bin/step", nil, user(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var flts types.FltSet
		flts.Fill()
		p.Trace.Faults = flts
		f.stopAll(p)
		l, err := f.K.WaitStop(p, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20 && p.Alive(); i++ {
			if l = p.EventStoppedLWP(); l == nil {
				break
			}
			if err := f.K.RunLWP(l, kernel.RunFlags{Step: true, ClearFault: true, ClearSig: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := f.K.WaitStop(p, 1_000_000); err != nil {
				break // it died or ran away; both fine
			}
		}
		if p.Alive() {
			if l := p.EventStoppedLWP(); l != nil {
				f.K.RunLWP(l, kernel.RunFlags{ClearFault: true, ClearSig: true})
			}
			p.Trace.Faults.Clear()
			f.K.PostSignal(p, types.SIGKILL)
			f.runToExit(p)
		}
	}
}

// snapshotSystem renders everything observable about a kernel after a fuzz
// run into one comparable string: clock, every process's state, exit status,
// LWP registers, address-space statistics, a digest of its memory image, and
// a digest of its event-trace stream.
func snapshotSystem(k *kernel.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%d\n", k.Now())
	for _, p := range k.Procs() {
		fmt.Fprintf(&b, "pid=%d comm=%q state=%v exit=%#x\n",
			p.Pid, p.Comm, p.State(), p.ExitStatus)
		for _, l := range p.LWPs {
			fmt.Fprintf(&b, "  lwp=%d state=%v regs=%v\n", l.ID, l.State(), l.CPU.Regs)
		}
		if p.AS != nil {
			fmt.Fprintf(&b, "  stats=%+v\n", p.AS.Stats)
			h := sha256.New()
			for _, s := range p.AS.SegsView() {
				buf := make([]byte, s.Len)
				p.AS.ReadAt(buf, int64(s.Base))
				fmt.Fprintf(h, "%x:%x:%v:", s.Base, s.Len, s.Prot)
				h.Write(buf)
			}
			fmt.Fprintf(&b, "  mem=%x\n", h.Sum(nil))
		}
		if p.KT != nil {
			fmt.Fprintf(&b, "  ktrace=%d events %x\n",
				p.KT.Len(), sha256.Sum256(ktrace.Encode(p.KT.Events())))
		}
	}
	if k.KT != nil {
		fmt.Fprintf(&b, "ktrace=%d events %x\n",
			k.KT.Len(), sha256.Sum256(ktrace.Encode(k.KT.Events())))
	}
	return b.String()
}

// TestDifferentialTLBvsNoTLB is the reference-interpreter oracle for the
// translation fast path: the same random program, run under the TLB-enabled
// pipeline and under the NoTLB reference interpreter, must produce identical
// final registers, memory images, fault statistics, process outcomes, and
// event-trace streams. Any divergence means the fast path changed observable
// semantics.
func TestDifferentialTLBvsNoTLB(t *testing.T) {
	rng := rand.New(rand.NewSource(7321)) // deterministic
	for trial := 0; trial < 25; trial++ {
		text := make([]byte, 512)
		for i := 0; i < len(text); i += 4 {
			w := rng.Uint32()
			if rng.Intn(3) != 0 {
				// Bias toward plausible opcodes so most programs execute
				// real instruction sequences rather than faulting at once.
				w = (w%0x2F)<<24 | rng.Uint32()&0x00FFFFFF
			}
			binary.BigEndian.PutUint32(text[i:], w)
		}

		runOne := func(noTLB bool) string {
			var k *kernel.Kernel
			fs := memfs.New(func() int64 {
				if k == nil {
					return 0
				}
				return k.Now()
			})
			ns := vfs.NewNS(fs.Root())
			k = kernel.New(ns, kernel.Config{NoTLB: noTLB})
			k.EnableKTraceAll(1 << 16)
			k.BootSystemProcs()
			fs.MkdirAll("/bin", 0o755)
			fs.MkdirAll("/tmp", 0o777)
			img := &xout.File{Entry: xout.TextBase, Text: text, BSSSize: 4096}
			if err := fs.WriteFile("/bin/chaos", img.Marshal(), 0o755, 0, 0); err != nil {
				t.Fatal(err)
			}
			p, err := k.Spawn("/bin/chaos", nil, types.UserCred(100, 10), nil)
			if err != nil {
				t.Fatalf("trial %d: spawn: %v", trial, err)
			}
			k.Run(1500)
			snap := snapshotSystem(k)
			// The program (and any children it managed to fork) must also
			// die identically.
			for _, q := range k.Procs() {
				if q.Alive() && !q.System {
					k.PostSignal(q, types.SIGKILL)
				}
			}
			if p.Alive() {
				if err := k.RunUntil(func() bool { return !p.Alive() }, 2_000_000); err != nil {
					t.Fatalf("trial %d: unkillable process: %v", trial, err)
				}
			}
			return snap + "---\n" + snapshotSystem(k)
		}

		fast := runOne(false)
		ref := runOne(true)
		if fast != ref {
			t.Fatalf("trial %d: TLB and NoTLB runs diverge:\n--- with TLB ---\n%s\n--- NoTLB reference ---\n%s",
				trial, fast, ref)
		}
	}
}
