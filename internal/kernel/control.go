package kernel

import (
	"errors"

	"repro/internal/types"
	"repro/internal/vcpu"
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
