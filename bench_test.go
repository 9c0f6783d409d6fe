// Benchmarks regenerating every figure, table and performance claim of the
// paper's evaluation, per the index in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers reflect the simulation substrate, not 1991 hardware; the
// shapes the paper claims — /proc beating ptrace by large factors on bulk
// operations and breakpoints, batching winning remotely, watchpoint recovery
// being cheap, COW isolating breakpoint writes — are what EXPERIMENTS.md
// records.
package repro_test

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/replay"
	"repro/internal/rfs"
	"repro/internal/tools"
	"repro/internal/types"
	"repro/internal/vfs"
)

func bootBench(b *testing.B) *repro.System {
	b.Helper()
	return repro.NewSystem()
}

func spawnBench(b *testing.B, s *repro.System, name, src string) *kernel.Proc {
	b.Helper()
	p, err := s.SpawnProg(name, src, types.UserCred(100, 10))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func openBench(b *testing.B, s *repro.System, pid int) *vfs.File {
	b.Helper()
	f, err := s.OpenProc(pid, vfs.ORead|vfs.OWrite, types.RootCred())
	if err != nil {
		b.Fatal(err)
	}
	return f
}

const benchSpin = "loop:\tjmp loop\n"

// --- F1: Figure 1, the /proc directory listing ---

func BenchmarkFig1ProcDirectoryList(b *testing.B) {
	s := bootBench(b)
	for i := 0; i < 10; i++ {
		spawnBench(b, s, fmt.Sprintf("p%d", i), benchSpin)
	}
	s.Run(5)
	cl := s.Client(types.RootCred())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tools.LsProc(cl, io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: Figure 2, the memory map via PIOCMAP ---

func BenchmarkFig2MemoryMap(b *testing.B) {
	s := bootBench(b)
	if err := s.Install("/lib/libbench", "fn:\tret\n.data\nd:\t.word 1\n", 0o755, 0, 0); err != nil {
		b.Fatal(err)
	}
	p := spawnBench(b, s, "mapped", ".lib \"libbench\"\nloop:\tjmp loop\n.data\nd:\t.word 2\n")
	s.Run(3)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var maps []procfs.PrMap
		if err := f.Ioctl(procfs.PIOCMAP, &maps); err != nil {
			b.Fatal(err)
		}
		if len(maps) != 6 {
			b.Fatalf("map entries = %d", len(maps))
		}
	}
}

// --- T1: the ioctl operation table, representative round trips ---

func BenchmarkIoctlStatus(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "st", benchSpin)
	s.Run(2)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	var st kernel.ProcStatus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Ioctl(procfs.PIOCSTATUS, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIoctlStopRun(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "sr", benchSpin)
	s.Run(2)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	var st kernel.ProcStatus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Ioctl(procfs.PIOCSTOP, &st); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCRUN, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C1: breakpoints per second, /proc vs ptrace ---
//
// The paper: debugger efficiency "becomes important in the implementation
// of features such as conditional breakpoints, for which 'breakpoints per
// second' is a realistic measure of performance." A conditional breakpoint
// must, on every hit, fetch the registers and the watched variables to
// evaluate the condition, then resume. With /proc the status (registers
// included) arrives with the stop and the variables in one bulk read; with
// ptrace every word is a separate call.

const benchBpProg = `
.entry main
fn:	addi r4, 1
	ret
main:	call fn
	jmp main
.data
state:	.space 64
`

func BenchmarkBreakpoints_Proc(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "bp", benchBpProg)
	d, err := tools.NewDebugger(s, p, types.RootCred())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	fn, _ := d.Lookup("fn")
	state, _ := d.Lookup("state")
	if err := d.SetBreak(fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := d.Cont() // the stop status carries the registers
		if err != nil {
			b.Fatal(err)
		}
		if st.Reg.PC != fn {
			b.Fatalf("stopped at %#x", st.Reg.PC)
		}
		// Evaluate the "condition": one bulk read of the program state.
		mem, err := d.ReadMem(state, 64)
		if err != nil {
			b.Fatal(err)
		}
		_ = mem[0] + byte(st.Reg.R[4])
	}
	b.StopTimer()
	b.ReportMetric(float64(d.Ops)/float64(b.N), "procops/hit")
}

func BenchmarkBreakpoints_Ptrace(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "bp", benchBpProg)
	c := s.K.PtraceAttach(p)
	d := tools.NewPtraceDebugger(c)
	s.K.PostSignal(p, types.SIGTRAP)
	if err := d.WaitTrap(1_000_000); err != nil {
		b.Fatal(err)
	}
	syms, _ := p.ImageSyms()
	var fn, state uint32
	for _, sym := range syms {
		if sym.Name == "fn" {
			fn = sym.Value
		}
		if sym.Name == "state" {
			state = sym.Value
		}
	}
	if err := d.SetBreak(fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Cont(1_000_000); err != nil {
			b.Fatal(err)
		}
		// Evaluate the "condition": registers and state, a word at a time.
		regs, err := d.Regs()
		if err != nil {
			b.Fatal(err)
		}
		mem, err := d.ReadMem(state, 64)
		if err != nil {
			b.Fatal(err)
		}
		_ = mem[0] + byte(regs.R[4])
	}
	b.StopTimer()
	b.ReportMetric(float64(d.Ops())/float64(b.N), "ptraceops/hit")
}

// Ablation: fielding breakpoints as faulted stops (the paper's preferred
// method) vs as SIGTRAP signalled stops.
func BenchmarkBreakpoints_ProcStopOnFault(b *testing.B) {
	benchBreakpointStops(b, true)
}

func BenchmarkBreakpoints_ProcStopOnSignal(b *testing.B) {
	benchBreakpointStops(b, false)
}

func benchBreakpointStops(b *testing.B, onFault bool) {
	s := bootBench(b)
	p := spawnBench(b, s, "bps", benchBpProg)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	if onFault {
		var flts types.FltSet
		flts.Add(types.FLTBPT)
		flts.Add(types.FLTTRACE)
		if err := f.Ioctl(procfs.PIOCSFAULT, &flts); err != nil {
			b.Fatal(err)
		}
	} else {
		// Faults convert to SIGTRAP; trace the signal instead, but FLTTRACE
		// must still be traced for the step-over.
		var flts types.FltSet
		flts.Add(types.FLTTRACE)
		if err := f.Ioctl(procfs.PIOCSFAULT, &flts); err != nil {
			b.Fatal(err)
		}
		var sigs types.SigSet
		sigs.Add(types.SIGTRAP)
		if err := f.Ioctl(procfs.PIOCSTRACE, &sigs); err != nil {
			b.Fatal(err)
		}
	}
	syms, _ := p.ImageSyms()
	var fn uint32
	for _, sym := range syms {
		if sym.Name == "fn" {
			fn = sym.Value
		}
	}
	orig := writeBreak(b, f, fn)
	var st kernel.ProcStatus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Ioctl(procfs.PIOCWSTOP, &st); err != nil {
			b.Fatal(err)
		}
		// Step over: restore, single-step, re-plant, continue.
		restoreWord(b, f, fn, orig)
		run := kernel.RunFlags{ClearFault: true, ClearSig: onFault == false, Step: true}
		if err := f.Ioctl(procfs.PIOCRUN, &run); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCWSTOP, &st); err != nil {
			b.Fatal(err)
		}
		writeBreak(b, f, fn)
		run = kernel.RunFlags{ClearFault: true}
		if err := f.Ioctl(procfs.PIOCRUN, &run); err != nil {
			b.Fatal(err)
		}
	}
}

func writeBreak(b *testing.B, f *vfs.File, addr uint32) uint32 {
	b.Helper()
	var buf [4]byte
	if _, err := f.Pread(buf[:], int64(addr)); err != nil {
		b.Fatal(err)
	}
	orig := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	bp := [4]byte{0x24, 0, 0, 0} // OpBPT
	if _, err := f.Pwrite(bp[:], int64(addr)); err != nil {
		b.Fatal(err)
	}
	return orig
}

func restoreWord(b *testing.B, f *vfs.File, addr, w uint32) {
	b.Helper()
	buf := [4]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	if _, err := f.Pwrite(buf[:], int64(addr)); err != nil {
		b.Fatal(err)
	}
}

// --- C2: full status, one PIOCSTATUS vs a ptrace PEEKUSER loop ---

func BenchmarkStatus_Proc(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "stp", benchSpin)
	s.Run(2)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	var st kernel.ProcStatus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Ioctl(procfs.PIOCSTATUS, &st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "ops/status")
}

func BenchmarkStatus_Ptrace(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "stt", benchSpin)
	c := s.K.PtraceAttach(p)
	d := tools.NewPtraceDebugger(c)
	s.K.PostSignal(p, types.SIGTRAP)
	if err := d.WaitTrap(1_000_000); err != nil {
		b.Fatal(err)
	}
	before := d.Ops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Regs(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(d.Ops()-before)/float64(b.N), "ops/status")
}

// --- C3: bulk address-space transfer, one read vs PEEKTEXT words ---

const benchBlobProg = `
loop:	jmp loop
.data
blob:	.space 65536
`

func BenchmarkASRead64K_Proc(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "blob", benchBlobProg)
	s.Run(2)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	syms, _ := p.ImageSyms()
	var blob uint32
	for _, sym := range syms {
		if sym.Name == "blob" {
			blob = sym.Value
		}
	}
	buf := make([]byte, 65536)
	b.SetBytes(65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := f.Pread(buf, int64(blob)); err != nil || n != len(buf) {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

func BenchmarkASRead64K_Ptrace(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "blob", benchBlobProg)
	c := s.K.PtraceAttach(p)
	d := tools.NewPtraceDebugger(c)
	s.K.PostSignal(p, types.SIGTRAP)
	if err := d.WaitTrap(1_000_000); err != nil {
		b.Fatal(err)
	}
	syms, _ := p.ImageSyms()
	var blob uint32
	for _, sym := range syms {
		if sym.Name == "blob" {
			blob = sym.Value
		}
	}
	b.SetBytes(65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadMem(blob, 65536); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C4: the ps sweep, one PIOCPSINFO per process ---

func BenchmarkPsSweep(b *testing.B) {
	s := bootBench(b)
	for i := 0; i < 20; i++ {
		spawnBench(b, s, fmt.Sprintf("w%d", i), benchSpin)
	}
	s.Run(5)
	cl := s.Client(types.RootCred())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tools.PS(cl, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(23, "procs/sweep")
}

// --- C5: truss overhead: a syscall-heavy program traced vs untraced ---

const benchSyscallProg = `
	movi r5, 50
loop:	movi r0, SYS_getpid
	syscall
	addi r5, -1
	cmpi r5, 0
	jne loop
	movi r0, SYS_exit
	movi r1, 0
	syscall
`

func BenchmarkTruss_Untraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := bootBench(b)
		p := spawnBench(b, s, "load", benchSyscallProg)
		b.StartTimer()
		if _, err := s.WaitExit(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTruss_Traced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := bootBench(b)
		p := spawnBench(b, s, "load", benchSyscallProg)
		tr := tools.NewTruss(s, io.Discard, types.RootCred())
		b.StartTimer()
		if err := tr.TraceToExit(p, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C6: batching control operations, ioctl-per-op vs one ctl write ---

// Five control operations: set four trace sets and nice.
func BenchmarkCtl_IoctlPerOp(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "ctl", benchSpin)
	s.Run(2)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	var sigs types.SigSet
	sigs.Add(types.SIGUSR1)
	var flts types.FltSet
	flts.Add(types.FLTBPT)
	var entries, exits types.SysSet
	entries.Add(kernel.SysRead)
	exits.Add(kernel.SysWrite)
	zero := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Ioctl(procfs.PIOCSTRACE, &sigs); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCSFAULT, &flts); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCSENTRY, &entries); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCSEXIT, &exits); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCNICE, &zero); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(5, "calls/config")
}

func BenchmarkCtl_BatchedWrite(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "ctl2", benchSpin)
	s.Run(2)
	ctl, err := s.Client(types.RootCred()).Open(
		"/procx/"+procfs.PidName(p.Pid)+"/ctl", vfs.OWrite)
	if err != nil {
		b.Fatal(err)
	}
	defer ctl.Close()
	var sigs types.SigSet
	sigs.Add(types.SIGUSR1)
	var flts types.FltSet
	flts.Add(types.FLTBPT)
	var entries, exits types.SysSet
	entries.Add(kernel.SysRead)
	exits.Add(kernel.SysWrite)
	batch := (&procfs2.CtlBuf{}).
		STrace(sigs).SFault(flts).SEntry(entries).SExit(exits).Nice(0).
		Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Pwrite(batch, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "calls/config")
}

// The same comparison over a (real, loopback) network, where each call is a
// protocol round trip: the restructuring claim in its intended setting.
func benchRemote(b *testing.B) (*repro.System, *rfs.Client, *kernel.Proc, func()) {
	return benchRemoteProg(b, benchSpin)
}

func benchRemoteProg(b *testing.B, prog string) (*repro.System, *rfs.Client, *kernel.Proc, func()) {
	b.Helper()
	s := bootBench(b)
	p := spawnBench(b, s, "remote", prog)
	s.Run(2)
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
		b.Fatal(err)
	}
	cl := rfs.NewClient(mt, types.RootCred())
	cleanup := func() {
		mt.Close()
		server.Close()
		<-done
	}
	return s, cl, p, cleanup
}

func BenchmarkRemoteCtl_IoctlPerOp(b *testing.B) {
	_, cl, p, cleanup := benchRemote(b)
	defer cleanup()
	f, err := cl.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead|vfs.OWrite)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var sigs types.SigSet
	sigs.Add(types.SIGUSR1)
	var flts types.FltSet
	flts.Add(types.FLTBPT)
	var entries, exits types.SysSet
	entries.Add(kernel.SysRead)
	exits.Add(kernel.SysWrite)
	zero := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Ioctl(procfs.PIOCSTRACE, &sigs); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCSFAULT, &flts); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCSENTRY, &entries); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCSEXIT, &exits); err != nil {
			b.Fatal(err)
		}
		if err := f.Ioctl(procfs.PIOCNICE, &zero); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(5, "roundtrips/config")
}

func BenchmarkRemoteCtl_BatchedWrite(b *testing.B) {
	_, cl, p, cleanup := benchRemote(b)
	defer cleanup()
	ctl, err := cl.Open("/procx/"+procfs.PidName(p.Pid)+"/ctl", vfs.OWrite)
	if err != nil {
		b.Fatal(err)
	}
	defer ctl.Close()
	var sigs types.SigSet
	sigs.Add(types.SIGUSR1)
	var flts types.FltSet
	flts.Add(types.FLTBPT)
	var entries, exits types.SysSet
	entries.Add(kernel.SysRead)
	exits.Add(kernel.SysWrite)
	batch := (&procfs2.CtlBuf{}).
		STrace(sigs).SFault(flts).SEntry(entries).SExit(exits).Nice(0).
		Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Pwrite(batch, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "roundtrips/config")
}

// --- C9: remote status, flat ioctl vs restructured status-file read ---

func BenchmarkRemoteStatus_FlatIoctl(b *testing.B) {
	_, cl, p, cleanup := benchRemote(b)
	defer cleanup()
	f, err := cl.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var st kernel.ProcStatus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Ioctl(procfs.PIOCSTATUS, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoteStatus_StatusFile(b *testing.B) {
	_, cl, p, cleanup := benchRemote(b)
	defer cleanup()
	f, err := cl.Open("/procx/"+procfs.PidName(p.Pid)+"/status", vfs.ORead)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := f.Pread(buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := procfs2.DecodeStatus(buf[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// Remote conditional breakpoints: the same debugger over RFS, where every
// /proc operation is a network round trip. The ptrace equivalent does not
// exist — ptrace is not a file and cannot cross the network at all, which
// is itself one of the paper's points.
func BenchmarkRemoteBreakpoints_Proc(b *testing.B) {
	s, cl, p, cleanup := benchRemoteProg(b, benchBpProg)
	defer cleanup()
	f, err := cl.Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead|vfs.OWrite)
	if err != nil {
		b.Fatal(err)
	}
	d, err := tools.NewDebuggerFile(s, p, f)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	fn, _ := d.Lookup("fn")
	state, _ := d.Lookup("state")
	if err := d.SetBreak(fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := d.Cont()
		if err != nil {
			b.Fatal(err)
		}
		mem, err := d.ReadMem(state, 64)
		if err != nil {
			b.Fatal(err)
		}
		_ = mem[0] + byte(st.Reg.R[4])
	}
	b.StopTimer()
	b.ReportMetric(float64(d.Ops)/float64(b.N), "roundtrips/hit")
}

// --- C3 ablation: aligned vs page-crossing /proc reads ---

func BenchmarkASReadAligned_Proc(b *testing.B) {
	benchASReadAt(b, 0) // page-aligned start
}

func BenchmarkASReadCrossing_Proc(b *testing.B) {
	benchASReadAt(b, 2048) // every read spans a page boundary
}

func benchASReadAt(b *testing.B, skew int64) {
	s := bootBench(b)
	p := spawnBench(b, s, "skew", benchBlobProg)
	s.Run(2)
	f := openBench(b, s, p.Pid)
	defer f.Close()
	syms, _ := p.ImageSyms()
	var blob uint32
	for _, sym := range syms {
		if sym.Name == "blob" {
			blob = sym.Value
		}
	}
	// Align the base to a page, then apply the skew.
	base := (int64(blob) + 4095) &^ 4095
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Pread(buf, base+skew); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C7: watchpoint same-page recovery overhead ---

const benchWatchProg = `
	la r3, table
	movi r5, 0
loop:	st r5, [r3]
	addi r5, 1
	jmp loop
.data
table:	.space 64
guard:	.word 0
`

func BenchmarkWatchpointSamePageUnwatched(b *testing.B) {
	benchWatchOverhead(b, true)
}

func BenchmarkWatchpointNoWatch(b *testing.B) {
	benchWatchOverhead(b, false)
}

func benchWatchOverhead(b *testing.B, watch bool) {
	s := bootBench(b)
	p := spawnBench(b, s, "ww", benchWatchProg)
	if watch {
		f := openBench(b, s, p.Pid)
		syms, _ := p.ImageSyms()
		var guard uint32
		for _, sym := range syms {
			if sym.Name == "guard" {
				guard = sym.Value
			}
		}
		w := procfs.PrWatch{Vaddr: guard, Size: 1, Mode: 2} // ProtWrite
		if err := f.Ioctl(procfs.PIOCSWATCH, &w); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(10) // ten quanta of same-page stores
	}
	b.StopTimer()
	if watch && p.AS.Stats.WatchRecover == 0 {
		b.Fatal("expected transparent recoveries")
	}
}

// --- C8: the cost of a copy-on-write fault (breakpoint write path) ---

func BenchmarkCOWFault(b *testing.B) {
	s := bootBench(b)
	if err := s.Install("/bin/cowtgt", benchSpin, 0o755, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := s.Spawn("/bin/cowtgt", nil, types.UserCred(100, 10))
		if err != nil {
			b.Fatal(err)
		}
		f := openBench(b, s, p.Pid)
		bp := [4]byte{0x24, 0, 0, 0}
		b.StartTimer()
		// The first write privatizes the text page (the COW fault).
		if _, err := f.Pwrite(bp[:], 0x80000000); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f.Close()
		s.K.PostSignal(p, types.SIGKILL)
		s.WaitExit(p)
		b.StartTimer()
	}
}

// --- C11: poll across a set of controlled processes ---

func BenchmarkPollWait(b *testing.B) {
	s := bootBench(b)
	var files []*vfs.File
	for i := 0; i < 4; i++ {
		p := spawnBench(b, s, fmt.Sprintf("pw%d", i), benchSpin)
		f := openBench(b, s, p.Pid)
		defer f.Close()
		files = append(files, f)
	}
	s.Run(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Direct one to stop; poll finds it; release it.
		target := files[i%len(files)]
		var st kernel.ProcStatus
		if err := target.Ioctl(procfs.PIOCSTOP, &st); err != nil {
			b.Fatal(err)
		}
		idx, _, err := vfs.Poll(files, vfs.PollPri, s.Step)
		if err != nil {
			b.Fatal(err)
		}
		if err := files[idx].Ioctl(procfs.PIOCRUN, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the simulator itself, for context ---

func BenchmarkKernelStep(b *testing.B) {
	s := bootBench(b)
	spawnBench(b, s, "k", benchSpin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// The SMP scheduler across CPU counts, with enough runnable processes to
// fill every run queue. NCPU=1 is the deterministic scheduler on the same
// population, so the sub-benchmarks read directly as the scaling curve.
// Scaling is real only when the host has cores to spend: the host_cpus
// metric records what was available, and on a single-core host the wins
// come from overlap, not parallelism.
func BenchmarkKernelStepSMP(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ncpu=%d", n), func(b *testing.B) {
			s := repro.NewSystem(repro.Options{NCPU: n})
			defer s.Close()
			for i := 0; i < 32; i++ {
				spawnBench(b, s, fmt.Sprintf("spin%d", i), benchSpin)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(runtime.NumCPU()), "host_cpus")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// --- C14: syscall injection cost ---

func BenchmarkInjectSyscall(b *testing.B) {
	s := bootBench(b)
	p := spawnBench(b, s, "inj", benchSpin)
	d, err := tools.NewDebugger(s, p, types.RootCred())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	s.Run(3)
	if _, err := d.Stop(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ret, errno, err := d.InjectSyscall(kernel.SysGetpid)
		if err != nil || errno != 0 || int(ret) != p.Pid {
			b.Fatalf("inject: %d %v %v", ret, errno, err)
		}
	}
}

// --- C15: kernel event tracing overhead ---
//
// A steady-state syscall mill: the system boots once and the timed loop is
// nothing but scheduler quanta full of getpid calls — the syscall hot path
// with no boot, spawn or teardown in the measurement. Tracing disabled
// costs two nil checks per control point; enabled it costs one ring append
// per event. The claim: under 5% enabled, unmeasurable disabled.

const benchSyscallMill = `
loop:	movi r0, SYS_getpid
	syscall
	jmp loop
`

func benchKTraceStep(b *testing.B, setup func(s *repro.System, p *kernel.Proc)) {
	b.Helper()
	s := bootBench(b)
	p := spawnBench(b, s, "mill", benchSyscallMill)
	if setup != nil {
		setup(s, p)
	}
	// Warm up: the first traced events pay the ring's lazy allocation; that
	// is enable-time cost, not per-event overhead.
	s.Run(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	if setup != nil {
		st := s.K.KTraceStats()
		b.ReportMetric(float64(st.Emitted)/float64(b.N), "events/step")
	}
}

func BenchmarkKTrace_Disabled(b *testing.B) {
	benchKTraceStep(b, nil)
}

func BenchmarkKTrace_PerProc(b *testing.B) {
	benchKTraceStep(b, func(s *repro.System, p *kernel.Proc) {
		p.SetKTrace(1 << 16)
	})
}

func BenchmarkKTrace_Global(b *testing.B) {
	benchKTraceStep(b, func(s *repro.System, p *kernel.Proc) {
		s.K.EnableKTraceAll(1 << 16)
	})
}

// The scheduler hot path itself (no syscalls, just quanta) with the
// kernel-wide ring on — sched ticks are the only events.
func BenchmarkKernelStepTraced(b *testing.B) {
	s := bootBench(b)
	s.K.EnableKTraceAll(1 << 16)
	spawnBench(b, s, "kt", benchSpin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// The same hot path with the replay recorder attached: tracing plus the tap
// copying every event and its step ordinal into the artifact. The margin
// over BenchmarkKernelStepTraced is the whole cost of recording; the budget
// is ~10%.
func BenchmarkKernelStepRecorded(b *testing.B) {
	rec := replay.NewRecorder(replay.Options{KTCap: 1 << 16})
	if err := rec.Install("/bin/kr", benchSpin, 0o755, 0, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := rec.Spawn("/bin/kr", nil, types.UserCred(100, 10)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Step()
	}
}

// Truss via the event ring vs the legacy stop-and-poll loop (C5's pair):
// the trace never stops the target, so tracing cost approaches the untraced
// run instead of the per-event stop/run round trips.
func BenchmarkTruss_TraceMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := bootBench(b)
		p := spawnBench(b, s, "load", benchSyscallProg)
		tr := tools.NewTruss(s, io.Discard, types.RootCred())
		tr.UseTrace = true
		b.StartTimer()
		if err := tr.TraceToExit(p, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// The multiplexed transport against a stop-and-wait baseline: N client
// goroutines share ONE connection. The baseline is the same MuxTransport
// behind a mutex held across each round trip (serialWindow), so exactly
// one request is in flight; the mux pipeline keeps N in flight, overlapping
// wire time with dispatch and batching read-mostly requests under one
// server-lock acquisition. The acceptance bar is ≥2× aggregate throughput
// at ≥4 concurrent clients; EXPERIMENTS.md (C16) records the measured
// ratio.
func BenchmarkRFSPipelined(b *testing.B) {
	const workers = 8
	for _, mode := range []string{"stopwait", "mux"} {
		b.Run(mode, func(b *testing.B) {
			s := bootBench(b)
			s.FS.WriteFile("/tmp/bench", make([]byte, 256), 0o644, 0, 0)
			var lock sync.Mutex
			srv := rfs.NewServer(s.NS, &lock)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Skipf("no loopback networking: %v", err)
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
				b.Fatal(err)
			}
			mt, err := rfs.NewMuxTransport(conn)
			if err != nil {
				b.Fatal(err)
			}
			defer mt.Close()
			var tp rfs.Transport = mt
			if mode == "stopwait" {
				tp = &serialWindow{t: mt}
			}
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl := rfs.NewClient(tp, types.RootCred())
					for remaining.Add(-1) >= 0 {
						if _, err := cl.Stat("/tmp/bench"); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			conn.Close()
			<-done
		})
	}
}

// serialWindow is BenchmarkRFSPipelined's stop-and-wait baseline: a mutex
// held across each round trip keeps one request in flight on the wrapped
// transport.
type serialWindow struct {
	mu sync.Mutex
	t  rfs.Transport
}

func (w *serialWindow) RoundTrip(req []byte) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.t.RoundTrip(req)
}

// --- PR 10: the persistent file system ---

// BenchmarkBlockFSWrite measures the journaled write path end to end: one
// operation rewrites a 4 KiB file on /disk through the vfs client —
// transaction begin, block allocation, journal record, commit — with the
// buffer cache absorbing the device traffic between checkpoints.
func BenchmarkBlockFSWrite(b *testing.B) {
	s := repro.NewSystem(repro.Options{DiskBlocks: 4096})
	defer s.Close()
	cl := s.Client(types.RootCred())
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := cl.Open("/disk/bench", vfs.OWrite|vfs.OCreat|vfs.OTrunc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Pwrite(data, 0); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkBlockFSCachedRead measures the buffer-cache hit path: repeated
// reads of a resident 16 KiB file — no device traffic after the first pass.
func BenchmarkBlockFSCachedRead(b *testing.B) {
	s := repro.NewSystem(repro.Options{DiskBlocks: 4096})
	defer s.Close()
	cl := s.Client(types.RootCred())
	data := make([]byte, 16*1024)
	f, err := cl.Open("/disk/bench", vfs.OWrite|vfs.OCreat)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Pwrite(data, 0); err != nil {
		b.Fatal(err)
	}
	f.Close()
	rf, err := cl.Open("/disk/bench", vfs.ORead)
	if err != nil {
		b.Fatal(err)
	}
	defer rf.Close()
	buf := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rf.Pread(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
