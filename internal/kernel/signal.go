package kernel

import (
	"math/bits"

	"repro/internal/types"
	"repro/internal/vcpu"
)

// sigALRM is a local alias to keep kernel.go free of a types import cycle of
// names; all other signal numbers are used via the types package directly.
const sigALRM = types.SIGALRM

// PostSignal generates a signal for a process — the kernel half of kill(2),
// alarm expiry, fault conversion and PIOCKILL. Generation and receipt are
// distinct: "a signal does not cause a process to stop when it is generated,
// only when it is received", which is exactly why the paper prefers faults
// over signals for breakpoints.
//
// Locking (SMP): the caller holds the global lock; when p is not the
// calling process (kill, SIGCHLD, alarm sweep, PIOCKILL) the caller holds
// p's process lock as well, because the usage counter, the disposition
// table and the hold masks read here are written by p's own process-local
// system calls under only that lock.
func (k *Kernel) PostSignal(p *Proc, sig int) {
	if p == nil || !p.Alive() || sig < 1 || sig > types.MaxSig {
		return
	}
	p.Usage.Signals++
	// Record generation before the discard-if-ignored logic below: the
	// trace observes signals that nothing else ever will.
	if k.ktEnabled(p) {
		k.ktSigPost(p, sig)
	}
	switch {
	case sig == types.SIGCONT:
		// Generating SIGCONT resumes a job-control-stopped process even if
		// SIGCONT is blocked or ignored, and discards pending stop signals.
		for _, s := range []int{types.SIGSTOP, types.SIGTSTP, types.SIGTTIN, types.SIGTTOU} {
			p.SigPend.Del(s)
		}
		if p.jobStopped {
			p.jobStopped = false
			for _, l := range p.LWPs {
				l.jobClaim = false
				l.recompute()
			}
			k.tracef("pid %d continued by SIGCONT", p.Pid)
		}
	case types.IsJobControlStop(sig):
		// Generating a stop signal discards pending SIGCONT.
		p.SigPend.Del(types.SIGCONT)
	}

	// Discard at generation if the action is to ignore and nothing will
	// ever observe the signal (not traced via /proc or ptrace; SIGKILL and
	// SIGSTOP cannot be ignored). SIGCONT's wake-up side effect above has
	// already been applied, so a default-action SIGCONT is also discarded.
	if sig != types.SIGKILL && sig != types.SIGSTOP && !p.Trace.Sigs.Has(sig) && !p.Ptraced {
		act := p.Actions[sig]
		ignored := act.Handler == SigIGN ||
			(act.Handler == SigDFL &&
				(types.SigDefault(sig) == types.DispIgnore || sig == types.SIGCONT))
		if ignored {
			return
		}
	}

	p.SigPend.Add(sig)
	p.noteIntr()
	// Wake any interruptible sleeper that can receive it, so issig() runs.
	for _, l := range p.LWPs {
		if l.sleeping && (!l.SigHold.Has(sig) || sig == types.SIGKILL) {
			l.wake()
		}
		if sig == types.SIGKILL && l.Stopped() {
			// SIGKILL cannot be blocked by stops other than /proc's own
			// claims; job-control stops do not survive it.
			l.jobClaim = false
			l.recompute()
		}
	}
}

// promote moves the lowest-numbered deliverable pending signal to the LWP's
// current signal, implementing the "current signal" concept that fixed the
// race the paper's footnote describes.
func (l *LWP) promote() {
	if l.CurSig != 0 {
		return // a current signal already exists; do not promote another
	}
	p := l.Proc
	// Deliverable: pending and not held, where SIGKILL is never held.
	d := p.SigPend.Minus(l.SigHold)
	if p.SigPend.Has(types.SIGKILL) {
		d.Add(types.SIGKILL)
	}
	for i, w := range d {
		if w != 0 {
			sig := 64*i + bits.TrailingZeros64(w) + 1
			p.SigPend.Del(sig)
			l.CurSig = sig
			return
		}
	}
}

// issig implements the complete control logic of the paper's Figure 4: the
// single kernel function that handles requested stops, signalled stops,
// ptrace stops and job-control stops — with /proc getting the last word. It
// returns true when a current signal remains to be acted on by psig.
//
// inSleep distinguishes the call made from within an interruptible sleep:
// there a true return means the system call fails with EINTR.
func (k *Kernel) issig(l *LWP, inSleep bool) bool {
	p := l.Proc
	for {
		// A /proc stop directive is honored first and last: a process
		// resumed by SIGCONT or ptrace stops again on a requested stop
		// before exiting issig().
		if l.dstop {
			l.dstop = false
			l.stopEvent(WhyRequested, 0)
			return false // remains stopped; caller re-enters on resume
		}

		l.promote()
		if l.CurSig == 0 {
			return false
		}
		sig := l.CurSig

		// Signalled stop: receipt of a traced signal. If the process is
		// also ptraced, the ptrace claim is established at the same stop:
		// when /proc later sets it running it remains stopped on the
		// signalled stop — ptrace has control.
		if p.Trace.Sigs.Has(sig) && !l.sigStopTaken {
			l.sigStopTaken = true
			if p.Ptraced && !l.ptraceStopTaken && sig != types.SIGKILL {
				l.ptraceStopTaken = true
				l.ptraceClaim = true
				l.waitReport = statusStopped(sig)
				k.notifyParent(p)
			}
			l.stopEvent(WhySignalled, sig)
			return false
		}

		// Legacy ptrace: a ptraced process stops on receipt of ANY signal,
		// whether or not traced via /proc. If both mechanisms apply, the
		// /proc stop comes first (above); once /proc sets it running, the
		// process remains stopped here — ptrace has control.
		if p.Ptraced && !l.ptraceStopTaken && sig != types.SIGKILL {
			l.ptraceStopTaken = true
			l.ptraceClaim = true
			l.why, l.what = WhyPtrace, sig
			l.recompute()
			l.waitReport = statusStopped(sig)
			k.notifyParent(p)
			k.tracef("pid %d ptrace-stop sig %s", p.Pid, types.SigName(sig))
			return false
		}

		// The stop/ptrace bookkeeping is per-delivery: reset once we get
		// past both stop points with the signal still current.
		l.sigStopTaken = false
		l.ptraceStopTaken = false

		if l.CurSig == 0 {
			continue // the debugger cleared it; look again
		}
		sig = l.CurSig

		act := p.Actions[sig]
		// SIGKILL's action is always the default, always fatal.
		if sig == types.SIGKILL {
			return true
		}

		// Job-control stop signals: the default action is taken inside
		// issig(). The process may thus stop twice for one signal: first
		// on the signalled stop above, then here if it was set running
		// without clearing the signal.
		if types.IsJobControlStop(sig) && act.Handler == SigDFL {
			l.CurSig = 0
			p.jobStopped = true
			for _, sib := range p.LWPs {
				if sib.state != LZombie {
					sib.jobClaim = true
					sib.recompute()
				}
			}
			l.why, l.what = WhyJobControl, sig
			l.waitReport = statusStopped(sig)
			k.notifyParent(p)
			k.tracef("pid %d job-control stop %s", p.Pid, types.SigName(sig))
			return false // stopped; restarted only by SIGCONT
		}

		if act.Handler == SigIGN ||
			(act.Handler == SigDFL && types.SigDefault(sig) == types.DispIgnore) ||
			(sig == types.SIGCONT && act.Handler == SigDFL) {
			l.CurSig = 0
			continue
		}
		return true
	}
}

// psig acts on the current signal: either arrange for the user handler to
// run, or terminate the process (possibly with a core dump).
func (k *Kernel) psig(l *LWP) {
	p := l.Proc
	sig := l.CurSig
	if sig == 0 {
		return
	}
	l.CurSig = 0
	act := p.Actions[sig]
	if k.ktEnabled(p) {
		k.ktSigDeliver(l, sig, act.Handler)
	}
	if sig != types.SIGKILL && act.Handler > SigIGN {
		k.pushSignalFrame(l, sig, act)
		return
	}
	// Default action: terminate (with core for the core-dump signals).
	status := sig & 0x7F
	if types.SigDefault(sig) == types.DispCore {
		status |= 0x80
		k.writeCore(p, sig)
	}
	k.tracef("pid %d killed by %s", p.Pid, types.SigName(sig))
	k.exitProc(p, status)
}

// pushSignalFrame modifies the saved registers and the user-level stack so
// that the process enters the signal handler when resumed at user level. The
// frame carries everything sigreturn needs to restore.
func (k *Kernel) pushSignalFrame(l *LWP, sig int, act SigAction) {
	// Frame layout (first pushed to last): PC, PSW, R7..R0, hold mask (4
	// words), sig. sigreturn pops it all back, so the interrupted
	// computation's registers survive the handler.
	hold := l.SigHold
	words := []uint32{l.CPU.Regs.PC, l.CPU.Regs.PSW}
	for i := vcpu.NumRegs - 1; i >= 0; i-- {
		words = append(words, l.CPU.Regs.R[i])
	}
	words = append(words,
		uint32(hold[1]>>32), uint32(hold[1]), uint32(hold[0]>>32), uint32(hold[0]),
		uint32(sig))
	for _, v := range words {
		if t := l.CPU.Push(v); t != nil {
			// Stack gone bad: the traditional response is SIGSEGV with
			// default action, i.e. death.
			k.tracef("pid %d signal stack fault", l.Proc.Pid)
			k.exitProc(l.Proc, types.SIGSEGV&0x7F|0x80)
			return
		}
	}
	// The handler runs with the signal itself and the action mask held.
	l.SigHold = l.SigHold.Union(act.Mask)
	l.SigHold.Add(sig)
	l.CPU.Regs.PC = act.Handler
	l.CPU.Regs.R[1] = uint32(sig)
	l.CPU.Regs.PSW &^= uint32(0xF) // clear condition flags
}

// sigreturnFrame pops the signal frame pushed by pushSignalFrame.
func (k *Kernel) sigreturnFrame(l *LWP) Errno {
	pop := func() (uint32, Errno) {
		v, t := l.CPU.Pop()
		if t != nil {
			return 0, EFAULT
		}
		return v, 0
	}
	var vals [7 + vcpu.NumRegs]uint32 // sig, mask*4, R0..R7, PSW, PC
	for i := range vals {
		v, e := pop()
		if e != 0 {
			return e
		}
		vals[i] = v
	}
	// vals: [0]=sig, [1]=h0lo, [2]=h0hi, [3]=h1lo, [4]=h1hi,
	// [5..5+N-1]=R0..R7, then PSW, PC.
	l.SigHold = types.SigSet{
		uint64(vals[2])<<32 | uint64(vals[1]),
		uint64(vals[4])<<32 | uint64(vals[3]),
	}
	for i := 0; i < vcpu.NumRegs; i++ {
		l.CPU.Regs.R[i] = vals[5+i]
	}
	l.CPU.Regs.PSW = vals[5+vcpu.NumRegs]
	l.CPU.Regs.PC = vals[6+vcpu.NumRegs]
	return 0
}

// sigNameFor is a tiny indirection so syscall.go can build the assembler
// predefine table without importing types at its call site.
func sigNameFor(sig int) string { return types.SigName(sig) }

// notifyParent wakes a parent blocked in wait(2).
func (k *Kernel) notifyParent(p *Proc) {
	if p.Parent != nil {
		k.wakeAll(&p.Parent.waitq)
	}
}

// Status encodings compatible with the classic wait(2) interface.

// statusExited encodes normal termination.
func statusExited(code int) int { return (code & 0xFF) << 8 }

// statusSignaled encodes termination by signal (bit 0x80 = core dumped).
func statusSignaled(sig int, core bool) int {
	s := sig & 0x7F
	if core {
		s |= 0x80
	}
	return s
}

// statusStopped encodes a stop reported to wait(2).
func statusStopped(sig int) int { return (sig&0xFF)<<8 | 0x7F }

// WIFSTOPPED and friends, for tests and tools.

// WIfExited reports normal termination and the exit code.
func WIfExited(status int) (bool, int) {
	if status&0xFF == 0 {
		return true, status >> 8
	}
	return false, 0
}

// WIfSignaled reports termination by signal.
func WIfSignaled(status int) (bool, int, bool) {
	low := status & 0x7F
	if low != 0 && low != 0x7F {
		return true, low, status&0x80 != 0
	}
	return false, 0, false
}

// WIfStopped reports a job-control or ptrace stop.
func WIfStopped(status int) (bool, int) {
	if status&0xFF == 0x7F {
		return true, status >> 8
	}
	return false, 0
}
