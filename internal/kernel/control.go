package kernel

import (
	"errors"

	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// Status flag bits (pr_flags of prstatus_t).
const (
	PRStopped = 1 << iota // an LWP is stopped
	PRIstop               // stopped on an event of interest, awaiting PIOCRUN
	PRDstop               // a stop directive is pending
	PRAsleep              // sleeping in an interruptible system call
	PRFork                // inherit-on-fork is set
	PRRlc                 // run-on-last-close is set
	PRPtrace              // process is traced via the obsolete ptrace(2)
	PRJobStop             // stopped by job control
)

// RunFlags qualify a run directive (prrun_t flags).
type RunFlags struct {
	ClearSig   bool   // PRCSIG: clear the current signal
	ClearFault bool   // PRCFAULT: clear the current fault
	Abort      bool   // PRSABORT: abort the system call (at entry or sleeping)
	Step       bool   // PRSTEP: single-step (FLTTRACE after one instruction)
	Stop       bool   // PRSTOP: direct it to stop again at the next event
	SetPC      bool   // PRSVADDR: resume at a new program counter
	PC         uint32 // the new program counter when SetPC is set
	SetSig     int    // if non-zero, make this the current signal (PIOCSSIG-style)
}

// RunLWP makes a stopped LWP runnable again (PIOCRUN). The LWP must be in a
// /proc stop (an event of interest or a requested stop); an error is
// returned otherwise. Note the paper's semantics for the competing
// mechanisms: clearing the /proc claim does not release a job-control stop
// (only SIGCONT does) or a ptrace stop (only the ptrace parent can).
func (k *Kernel) RunLWP(l *LWP, f RunFlags) error {
	if !l.Proc.Alive() {
		return ErrNoProcess
	}
	if !l.procClaim {
		return ErrNotStopped
	}
	if f.ClearSig {
		l.CurSig = 0
		l.sigStopTaken = false
		l.ptraceStopTaken = false
	}
	if f.SetSig != 0 {
		l.CurSig = f.SetSig
		l.Proc.noteIntr()
	}
	if f.ClearFault {
		l.clearFlt = true
	}
	if f.Abort {
		l.abortSys = true
		if l.sleeping {
			l.wake()
		}
	}
	if f.Step {
		// Set the trace bit directly: the LWP may resume in user mode
		// without passing through the return-to-user path first.
		l.CPU.Regs.PSW |= uint32(vcpu.FlagTrace)
	}
	if f.Stop {
		l.dstop = true
		l.Proc.noteIntr()
	}
	if f.SetPC {
		l.CPU.Regs.PC = f.PC
	}
	l.procClaim = false
	l.why, l.what = WhyNone, 0
	l.recompute()
	return nil
}

// ErrNotStopped is returned by RunLWP when the target is not in a /proc stop.
var ErrNotStopped = errNotStopped{}

type errNotStopped struct{}

func (errNotStopped) Error() string { return "kernel: process is not stopped on a /proc event" }

// DirectStopAll directs every live LWP of the process to stop (PIOCSTOP's
// first half; PIOCWSTOP additionally drives the system until it happens).
func (p *Proc) DirectStopAll() {
	for _, l := range p.LWPs {
		if l.state != LZombie {
			l.DirectStop()
		}
	}
}

// EventStoppedLWP returns an LWP stopped on an event of interest, or nil.
func (p *Proc) EventStoppedLWP() *LWP {
	for _, l := range p.LWPs {
		if l.StoppedOnEvent() {
			return l
		}
	}
	return nil
}

// ErrJobStopped reports that a wait-for-stop cannot complete because the
// target is stopped by job control: the pending /proc directive will take
// effect only when SIGCONT restarts it — "/proc gets the last word", but
// only once the process runs again.
var ErrJobStopped = errors.New("kernel: process is stopped by job control; the requested stop takes effect when SIGCONT restarts it")

// WaitStop drives the scheduler until some LWP of p stops on an event of
// interest, returning that LWP. It fails with ErrNoProcess if the process
// exits first, and with ErrJobStopped if the target is parked in a
// job-control stop that only SIGCONT can release.
func (k *Kernel) WaitStop(p *Proc, maxSteps int) (*LWP, error) {
	err := k.RunUntil(func() bool {
		return !p.Alive() || p.EventStoppedLWP() != nil
	}, maxSteps)
	if err != nil {
		if err == ErrDeadlock {
			for _, l := range p.LWPs {
				if l.jobClaim && l.dstop {
					return nil, ErrJobStopped
				}
			}
		}
		return nil, err
	}
	if !p.Alive() {
		return nil, ErrNoProcess
	}
	return p.EventStoppedLWP(), nil
}

// WaitLWPStop is WaitStop for one specific LWP (the hierarchical per-LWP
// control files use it).
func (k *Kernel) WaitLWPStop(l *LWP, maxSteps int) error {
	err := k.RunUntil(func() bool {
		return !l.Proc.Alive() || l.state == LZombie || l.StoppedOnEvent()
	}, maxSteps)
	if err != nil {
		return err
	}
	if !l.Proc.Alive() || l.state == LZombie {
		return ErrNoProcess
	}
	return nil
}

// ReleaseTracing clears every tracing flag of a process and sets any
// /proc-stopped LWP running — the run-on-last-close behavior shared by both
// /proc interfaces, and the explicit detach path.
func (k *Kernel) ReleaseTracing(p *Proc) {
	p.Trace.Sigs.Clear()
	p.Trace.Faults.Clear()
	p.Trace.Entry.Clear()
	p.Trace.Exit.Clear()
	p.Trace.InhFork = false
	p.Trace.RunLC = false
	for _, l := range p.LWPs {
		if l.StoppedOnEvent() {
			k.RunLWP(l, RunFlags{})
		}
	}
}

// SetCurSig makes sig the current signal of the LWP (PIOCSSIG). A zero sig
// clears the current signal.
func (l *LWP) SetCurSig(sig int) {
	l.CurSig = sig
	if sig != 0 {
		l.Proc.noteIntr()
	}
	if sig == 0 {
		l.sigStopTaken = false
		l.ptraceStopTaken = false
	}
}

// UnKill deletes a pending signal (PIOCUNKILL).
func (p *Proc) UnKill(sig int) { p.SigPend.Del(sig) }

// CanOpen is THE /proc visibility rule, shared by every path that exposes a
// process: per-pid open in both /proc interfaces and the batched snapshot
// (PIOCSNAP and the /procx/snapshot file). Permission is more restrictive
// than traditional file permissions: both the effective uid and gid of the
// controlling process must match the real uid and gid of the traced
// process, a process that has done a set-id exec is visible only to the
// super-user, and the super-user sees everything. One predicate guarantees
// the batched path can never reveal a process the per-pid path would
// refuse.
func (p *Proc) CanOpen(c types.Cred) bool {
	if c.IsSuper() {
		return true
	}
	if p.SugidDirty {
		return false
	}
	return c.EUID == p.Cred.RUID && c.EGID == p.Cred.RGID
}

// ProcFile is the open state of one /proc descriptor, shared by the flat
// ioctl interface and the restructured ctl files: the writer accounting at
// open, the validity check every operation makes, run-on-last-close at close
// and poll readiness. Its verbs (Stop, Run, Kill, ...) are the one set of
// control operations; the ioctl and ctl-message decoders only turn their
// operands into verb calls, so both interfaces check, lock and fail alike.
//
// Lock rule: every ProcFile method runs with the global lock already held
// by its entry point. A simulated process's file system call holds it for
// the call's lock class; host callers take it at the vfs gateway, the lock
// of the locked /proc mounts. A method takes only the target's Proc lock,
// and lockdebug builds assert the global lock on entry. WaitStop is the one
// exception: the wait drives the scheduler, so it drops the global lock
// around the wait and takes it again.
type ProcFile struct {
	P      *Proc
	L      *LWP // the LWP of a per-LWP file; nil for a process file
	flags  int
	gen    int
	excl   bool
	closed bool
}

// OpenProcFile opens a /proc descriptor for p (and l, for a per-LWP file)
// under the visibility rule. A writable open is counted as a writer; an
// O_EXCL writer refuses, and is refused by, every other writer.
func (k *Kernel) OpenProcFile(p *Proc, l *LWP, flags int, c types.Cred) (*ProcFile, error) {
	k.assertGlobal()
	p.Lock()
	defer p.Unlock()
	if p.State() == PGone {
		return nil, vfs.ErrNotExist
	}
	if !p.CanOpen(c) {
		return nil, vfs.ErrPerm
	}
	excl := flags&vfs.OWrite != 0 && flags&vfs.OExcl != 0
	if flags&vfs.OWrite != 0 {
		if p.Trace.Excl || excl && p.Trace.Writers > 0 {
			return nil, vfs.ErrBusy
		}
		p.Trace.Excl = excl
		p.Trace.Writers++
	}
	return &ProcFile{P: p, L: l, flags: flags, gen: p.Trace.Gen, excl: excl}, nil
}

// Closed reports whether the descriptor is closed. The reads that work on
// zombies (psinfo, the trace stream) check only this.
func (f *ProcFile) Closed() bool { return f.closed }

// Lock checks the descriptor and takes the target's lock. A write operation
// needs a writable open. When a traced process execs a set-id file, the
// descriptors opened before become invalid: no further operation succeeds
// except close. On error the lock is not held.
func (f *ProcFile) Lock(write bool) error {
	p := f.P
	p.k.assertGlobal()
	p.Lock()
	var err error
	switch {
	case f.closed:
		err = vfs.ErrBadFD
	case f.gen != p.Trace.Gen:
		err = vfs.ErrStale
	case !p.Alive():
		err = vfs.ErrNotExist
	case write && f.flags&vfs.OWrite == 0:
		err = vfs.ErrBadFD
	}
	if err != nil {
		p.Unlock()
	}
	return err
}

// Unlock releases the target's lock taken by Lock.
func (f *ProcFile) Unlock() { f.P.Unlock() }

// do runs one verb: a valid writable descriptor, the target's lock, fn.
func (f *ProcFile) do(fn func(p *Proc) error) error {
	if err := f.Lock(true); err != nil {
		return err
	}
	defer f.Unlock()
	return fn(f.P)
}

// onLWP runs a verb on the LWP the file addresses: its own, or the
// process's representative.
func (f *ProcFile) onLWP(fn func(l *LWP) error) error {
	return f.do(func(p *Proc) error {
		l := f.L
		if l == nil {
			l = p.Rep()
		}
		if l == nil {
			return vfs.ErrNotExist
		}
		return fn(l)
	})
}

// onStopped runs a verb on the LWP a run directive addresses: the file's
// own, or the process's LWP stopped on an event of interest.
func (f *ProcFile) onStopped(fn func(l *LWP) error) error {
	return f.do(func(p *Proc) error {
		l := f.L
		if l == nil {
			l = p.EventStoppedLWP()
		}
		if l == nil {
			return ErrNotStopped
		}
		return fn(l)
	})
}

// validSig reports whether sig names a signal (1..MaxSig).
func validSig(sig int) bool { return sig >= 1 && sig <= types.MaxSig }

// Check validates the descriptor for a write without applying anything
// (PCNULL).
func (f *ProcFile) Check() error { return f.do(func(*Proc) error { return nil }) }

// Stop directs the file's LWP, or every LWP, to stop (PCDSTOP; PIOCSTOP
// and PCSTOP add WaitStop).
func (f *ProcFile) Stop() error {
	return f.do(func(p *Proc) error {
		if f.L != nil {
			f.L.DirectStop()
		} else {
			p.DirectStopAll()
		}
		return nil
	})
}

// WaitStop waits until the file's LWP, or some LWP, stops on an event of
// interest (PIOCWSTOP, PCWSTOP) and fills st, if non-nil, with its status.
// The wait drives the scheduler, so it releases the global lock around it.
// A simulated process cannot wait, at any width: its system call runs
// inside a scheduling pass, which cannot drive the scheduler it is part of.
// Called during a pass, WaitStop fails with EDEADLK and waits for nothing.
func (f *ProcFile) WaitStop(maxSteps int, st *ProcStatus) error {
	if err := f.Lock(true); err != nil {
		return err
	}
	f.Unlock()
	p, l := f.P, f.L
	k := p.k
	if k.inPass.Load() {
		return EDEADLK
	}
	k.GlobalUnlock()
	var err error
	if l != nil {
		err = k.WaitLWPStop(l, maxSteps)
	} else {
		l, err = k.WaitStop(p, maxSteps)
	}
	k.GlobalLock()
	if err != nil || st == nil {
		return err
	}
	p.Lock()
	*st = l.LWPStatus()
	p.Unlock()
	return nil
}

// Run makes the stopped LWP runnable (PIOCRUN, PCRUN).
func (f *ProcFile) Run(rf RunFlags) error {
	return f.onStopped(func(l *LWP) error { return l.Proc.k.RunLWP(l, rf) })
}

// ClearFault clears the stopped LWP's current fault (PIOCCFAULT, PCCFAULT).
func (f *ProcFile) ClearFault() error {
	return f.onStopped(func(l *LWP) error { l.CurFlt = 0; return nil })
}

// SetSigTrace sets the traced signals (PIOCSTRACE, PCSTRACE).
func (f *ProcFile) SetSigTrace(s types.SigSet) error {
	return f.do(func(p *Proc) error { p.Trace.Sigs = s; return nil })
}

// SetFaultTrace sets the traced faults (PIOCSFAULT, PCSFAULT).
func (f *ProcFile) SetFaultTrace(s types.FltSet) error {
	return f.do(func(p *Proc) error { p.Trace.Faults = s; return nil })
}

// SetEntryTrace sets the traced system call entries (PIOCSENTRY, PCSENTRY).
func (f *ProcFile) SetEntryTrace(s types.SysSet) error {
	return f.do(func(p *Proc) error { p.Trace.Entry = s; return nil })
}

// SetExitTrace sets the traced system call exits (PIOCSEXIT, PCSEXIT).
func (f *ProcFile) SetExitTrace(s types.SysSet) error {
	return f.do(func(p *Proc) error { p.Trace.Exit = s; return nil })
}

// Mode bits for SetMode (PCSET/PCUNSET; the PIOCSFORK family).
const (
	ModeInhFork = 1 << iota // inherit-on-fork
	ModeRunLC               // run-on-last-close
)

// SetMode sets (on) or clears the mode flags in mask.
func (f *ProcFile) SetMode(mask int, on bool) error {
	return f.do(func(p *Proc) error {
		if mask&ModeInhFork != 0 {
			p.Trace.InhFork = on
		}
		if mask&ModeRunLC != 0 {
			p.Trace.RunLC = on
		}
		return nil
	})
}

// SetCurSig makes sig the LWP's current signal; 0 clears it (PIOCSSIG,
// PCSSIG).
func (f *ProcFile) SetCurSig(sig int) error {
	return f.onLWP(func(l *LWP) error {
		if sig != 0 && !validSig(sig) {
			return vfs.ErrInval
		}
		l.SetCurSig(sig)
		return nil
	})
}

// Kill sends sig to the process (PIOCKILL, PCKILL).
func (f *ProcFile) Kill(sig int) error {
	return f.do(func(p *Proc) error {
		if !validSig(sig) {
			return vfs.ErrInval
		}
		p.k.PostSignal(p, sig)
		return nil
	})
}

// UnKill deletes a pending signal (PIOCUNKILL, PCUNKILL).
func (f *ProcFile) UnKill(sig int) error {
	return f.do(func(p *Proc) error {
		if !validSig(sig) {
			return vfs.ErrInval
		}
		p.UnKill(sig)
		return nil
	})
}

// SetHold sets the LWP's held signals (PIOCSHOLD, PCSHOLD).
func (f *ProcFile) SetHold(s types.SigSet) error {
	return f.onLWP(func(l *LWP) error { l.SetHold(s); return nil })
}

// SetRegs sets the LWP's general registers (PIOCSREG, PCSREG).
func (f *ProcFile) SetRegs(r vcpu.Regs) error {
	return f.onLWP(func(l *LWP) error { l.CPU.Regs = r; return nil })
}

// SetFPRegs sets the LWP's floating point registers (PIOCSFPREG).
func (f *ProcFile) SetFPRegs(r vcpu.FPRegs) error {
	return f.onLWP(func(l *LWP) error { l.CPU.FP = r; return nil })
}

// Nice adjusts the process's priority (PIOCNICE, PCNICE).
func (f *ProcFile) Nice(incr int) error {
	return f.do(func(p *Proc) error { p.SetNice(incr); return nil })
}

// SetKTrace enables, resizes or (capacity 0) disables the process's event
// tracing (PCTRACE).
func (f *ProcFile) SetKTrace(capacity int) error {
	return f.do(func(p *Proc) error { p.SetKTrace(capacity); return nil })
}

// Watch sets a data watchpoint (PIOCSWATCH, PCWATCH).
func (f *ProcFile) Watch(addr, size uint32, mode mem.Prot) error {
	return f.do(func(p *Proc) error {
		if p.AS == nil || size == 0 {
			return vfs.ErrInval
		}
		p.AS.SetWatch(addr, size, mode)
		return nil
	})
}

// ClearWatch clears the watchpoint at addr, or every watchpoint when all
// is set (PIOCCWATCH, PCCWATCH).
func (f *ProcFile) ClearWatch(addr uint32, all bool) error {
	return f.do(func(p *Proc) error {
		switch {
		case p.AS == nil:
			return vfs.ErrInval
		case all:
			p.AS.ClearAllWatches()
		default:
			p.AS.ClearWatch(addr)
		}
		return nil
	})
}

// space returns the target's address space for I/O through the descriptor.
func (f *ProcFile) space(write bool) (*mem.AS, error) {
	if err := f.Lock(write); err != nil {
		return nil, err
	}
	as := f.P.AS
	f.Unlock()
	if as == nil {
		return nil, vfs.ErrInval
	}
	return as, nil
}

// ReadAS reads the address space at virtual address off. The page copies
// run outside the target's lock; the space serializes itself.
func (f *ProcFile) ReadAS(b []byte, off int64) (int, error) {
	as, err := f.space(false)
	if err != nil {
		return 0, err
	}
	n, err := as.ReadAt(b, off)
	if err != nil {
		return 0, vfs.Errorf("proc: read at unmapped offset %#x", off)
	}
	return n, nil
}

// WriteAS writes the address space at virtual address off. Writes to
// MAP_PRIVATE mappings (read/exec text included) are satisfied by
// copy-on-write, so planting breakpoints corrupts neither the executable
// file nor other processes running the same code.
func (f *ProcFile) WriteAS(b []byte, off int64) (int, error) {
	as, err := f.space(true)
	if err != nil {
		return 0, err
	}
	n, err := as.WriteAt(b, off)
	switch {
	case err == mem.ErrNoMem:
		// A refused page materialization is a transient resource
		// failure, not an address error.
		return 0, vfs.ErrAgain
	case err != nil:
		return 0, vfs.Errorf("proc: write at unmapped offset %#x", off)
	}
	return n, nil
}

// HClose implements vfs.Handle's close for both interfaces. With
// run-on-last-close set, when the last writable descriptor is closed all
// tracing flags are cleared and the process, if stopped, is set running —
// so a controlled process is released even if its controller is killed.
// A descriptor invalidated by a set-id exec is no longer a counted writer.
func (f *ProcFile) HClose() error {
	if f.closed {
		return vfs.ErrBadFD
	}
	f.closed = true
	p := f.P
	p.k.assertGlobal()
	p.Lock()
	defer p.Unlock()
	if f.flags&vfs.OWrite == 0 || f.gen != p.Trace.Gen {
		return nil
	}
	if f.excl {
		p.Trace.Excl = false
	}
	if p.Trace.Writers > 0 {
		p.Trace.Writers--
	}
	if p.Trace.Writers == 0 && p.Trace.RunLC && p.Alive() {
		p.k.ReleaseTracing(p)
	}
	return nil
}

// HPoll implements vfs.Poller — the paper's proposed extension: a /proc
// descriptor is ready (an exceptional condition) when its process, or its
// LWP, is stopped on an event of interest, so a debugger can wait for any
// one of a set of controlled processes with poll(2).
func (f *ProcFile) HPoll(mask int) int {
	if f.closed || mask&vfs.PollPri == 0 {
		return 0
	}
	p := f.P
	p.k.assertGlobal()
	p.Lock()
	defer p.Unlock()
	if !p.Alive() {
		return 0
	}
	if f.L != nil && f.L.StoppedOnEvent() || f.L == nil && p.EventStoppedLWP() != nil {
		return vfs.PollPri
	}
	return 0
}

// HSaveState / HLoadState implement vfs.HandleSnapshotter: the closed flag
// is the only mutable per-open state (the writer accounting it feeds lives
// in the Proc, which the kernel snapshot covers).
func (f *ProcFile) HSaveState() any { return f.closed }
func (f *ProcFile) HLoadState(st any) {
	if c, ok := st.(bool); ok {
		f.closed = c
	}
}

// ProcStatus is the prstatus_t analogue: the execution context a controlling
// process requests at any time, designed to contain the information most
// frequently needed by a debugger.
type ProcStatus struct {
	Flags   int
	Why     StopWhy
	What    int
	CurSig  int
	Pid     int
	PPid    int
	Pgrp    int
	Sid     int
	LWPID   int
	NLWP    int
	SigPend types.SigSet
	SigHold types.SigSet
	Reg     vcpu.Regs
	Syscall int       // system call number when stopped in one
	SysArgs [6]uint32 // its arguments
	Instret uint64
	UTime   int64
	STime   int64
	BrkBase uint32
	BrkSize uint32
	StkBase uint32
	StkSize uint32
	VSize   int64
}

// LWPStatus snapshots one LWP.
func (l *LWP) LWPStatus() ProcStatus {
	p := l.Proc
	st := ProcStatus{
		Why:     l.why,
		What:    l.what,
		CurSig:  l.CurSig,
		Pid:     p.Pid,
		Pgrp:    p.Pgrp,
		Sid:     p.Sid,
		LWPID:   l.ID,
		NLWP:    p.NLiveLWPs(),
		SigPend: p.SigPend,
		SigHold: l.SigHold,
		Reg:     l.CPU.Regs,
		Instret: l.CPU.Instret,
		UTime:   p.Usage.UserTicks,
		STime:   p.Usage.SysTicks,
		VSize:   p.VirtSize(),
	}
	if p.Parent != nil {
		st.PPid = p.Parent.Pid
	}
	if l.Stopped() {
		st.Flags |= PRStopped
	}
	if l.StoppedOnEvent() {
		st.Flags |= PRIstop
	}
	if l.dstop {
		st.Flags |= PRDstop
	}
	if l.sleeping {
		st.Flags |= PRAsleep
	}
	if l.jobClaim {
		st.Flags |= PRJobStop
	}
	if p.Trace.InhFork {
		st.Flags |= PRFork
	}
	if p.Trace.RunLC {
		st.Flags |= PRRlc
	}
	if p.Ptraced {
		st.Flags |= PRPtrace
	}
	if n := l.InSyscall(); n != 0 {
		st.Syscall = n
		if l.phase == phSysEntry {
			// At an entry stop the system has not yet fetched the
			// arguments; report them from the registers, which is where
			// they will be fetched from (and where a debugger changes
			// them).
			for i := 0; i < 5; i++ {
				st.SysArgs[i] = l.CPU.Regs.R[i+1]
			}
		} else {
			st.SysArgs = l.sysArgs
		}
	}
	if p.AS != nil {
		if b := p.AS.BrkSeg(); b != nil {
			st.BrkBase, st.BrkSize = b.Base, b.Len
		}
		if s := p.AS.StackSeg(); s != nil {
			st.StkBase, st.StkSize = s.Base, s.Len
		}
	}
	return st
}

// Status snapshots the representative LWP — what the flat (single-threaded)
// /proc interface reports.
func (p *Proc) Status() (ProcStatus, error) {
	if !p.Alive() {
		return ProcStatus{}, ErrNoProcess
	}
	l := p.Rep()
	if l == nil {
		return ProcStatus{}, ErrNoProcess
	}
	return l.LWPStatus(), nil
}

// PSInfo is the PIOCPSINFO analogue: everything ps(1) might want to display
// about a process, obtained in a single operation so each line of ps output
// is a true snapshot of the process.
type PSInfo struct {
	Pid   int
	PPid  int
	Pgrp  int
	Sid   int
	UID   int
	GID   int
	State byte // R, S, T, Z as in ps
	Nice  int
	VSize int64
	Time  int64 // user + system ticks
	Start int64
	Comm  string
	Args  string
	NLWP  int
}

// PSInfo snapshots the process for ps. It works on zombies too (state Z),
// unlike the status and control operations.
func (p *Proc) PSInfo() PSInfo {
	info := PSInfo{
		Pid:   p.Pid,
		Pgrp:  p.Pgrp,
		Sid:   p.Sid,
		UID:   p.Cred.RUID,
		GID:   p.Cred.RGID,
		Nice:  p.Nice,
		VSize: p.VirtSize(),
		Time:  p.Usage.UserTicks + p.Usage.SysTicks,
		Start: p.Start,
		Comm:  p.Comm,
		NLWP:  p.NLiveLWPs(),
	}
	if p.Parent != nil {
		info.PPid = p.Parent.Pid
	}
	for i, a := range p.Args {
		if i > 0 {
			info.Args += " "
		}
		info.Args += a
	}
	switch {
	case p.State() == PZombie || p.State() == PGone:
		info.State = 'Z'
	case p.System:
		info.State = 'S'
	default:
		info.State = 'R'
		if l := p.Rep(); l != nil {
			switch {
			case l.Stopped():
				info.State = 'T'
			case l.sleeping:
				info.State = 'S'
			}
		}
	}
	return info
}

// Credentials returns the process credentials (PIOCCRED/PIOCGROUPS).
func (p *Proc) Credentials() types.Cred { return p.Cred.Clone() }

// SetNice adjusts the nice value (PIOCNICE).
func (p *Proc) SetNice(incr int) {
	p.Nice += incr
	if p.Nice < -20 {
		p.Nice = -20
	}
	if p.Nice > 19 {
		p.Nice = 19
	}
}

// SigActionOf returns the action for a signal (PIOCACTION).
func (p *Proc) SigActionOf(sig int) SigAction {
	if sig < 1 || sig > types.MaxSig {
		return SigAction{}
	}
	return p.action(sig)
}
