package kernel

import (
	"repro/internal/types"
	"repro/internal/vcpu"
)

// runLWPOn advances one LWP on CPU w through the kernel entry/exit cycle
// for up to budget instructions. The stop points of the paper's Figure 3
// are the transitions of this machine: system call entry, system call exit,
// machine faults, and signal receipt on the way back to user level. It
// returns whether anything ran.
//
// This is the only phase machine. At NCPU=1 Step drives its one CPU inline
// on the caller's goroutine and every lock below is a no-op; at NCPU>1 each
// worker goroutine drives its own CPU. The division of labor per iteration:
//
//   - User mode runs in batches with no kernel lock at all: one
//     vcpu.Run call executes instructions until a trap, the end of the
//     budget or a raised intr. The only per-instruction synchronization
//     is the process's intr atomic, which Run reads after every
//     instruction (the full signal/stop gate is taken under the global
//     lock only when it is set), and the address space's own atomics on
//     the fetch-window and TLB paths. The loop-top state check and the
//     phase switch run once per batch.
//   - System calls dispatch under the lock their class requires
//     (sysLockClass): none for pure reads of process-local atomics,
//     the per-process lock for calls that touch only the caller (brk,
//     signal masks, alarm/times, umask/nice), and the narrow global
//     lock for everything that can see another process (fork/exit/wait,
//     file ops, kill, every call that can sleep). Kernel phases that
//     touch cross-process state (signal delivery, stop events, sleeps,
//     trace emission) take the global lock lazily via w.lockGlobal()
//     and drop everything at the return to user level.
//   - Ticks and usage counts accumulate in the CPU's deltas, so the
//     user-mode hot loop performs no shared-memory write per instruction.
//     Every lockProc/lockGlobal call folds the deltas into the clock and
//     the process's usage (kcpu.flush), and everything that can observe
//     them takes one of those first: a locked dispatch, every ktrace
//     emission (ktEmit stamps Now), and the end of the quantum. At NCPU=1
//     the clock and usage therefore read exactly what per-instruction
//     counters would.
//
// The batch invariant: every change another CPU makes that stops or kills
// an LWP running user code raises p.intr in the same global-lock critical
// section, before the change. Posted signals, directed stops, a current
// signal set by a control operation and ptrace continue only raise intr;
// the LWP stops itself at its next gate. The one cross-CPU state change of
// a running process is exitProc reached through ptrace PtKill (a stopped
// LWP's running sibling), and exitProc raises intr first. A process's LWPs
// are all claimed by one CPU, so sibling exit and exec run on the CPU that
// runs the batch and cannot overlap it. Run reads intr after every
// instruction, so a batch ends at the same instruction boundary as the
// per-instruction loop-top check would, and at NCPU=1, where nothing else
// runs during a batch, the trace is the per-instruction one. -tags
// lockdebug asserts the invariant after every batch (assertBatchGate).
func (k *Kernel) runLWPOn(w *kcpu, l *LWP, budget int) (ran bool) {
	p := l.Proc
	// A stop, sleep or death reached during this call counts as progress
	// even when no instruction executed — the state advanced, and waiters
	// (PIOCWSTOP, poll) must get a chance to observe it. Other CPUs mutate
	// scheduling state under the global lock; this CPU holds nothing yet,
	// so entry/exit observations and the loop-top check go through the
	// atomic state mirror.
	entryPhase, entryState := l.phase, LState(l.stateA.Load())
	w.enter(l)
	defer func() {
		st := LState(l.stateA.Load())
		if l.phase != entryPhase || st != entryState {
			ran = true
		}
		if st == LSleep || st == LZombie {
			// An LWP that cannot run gives its TLB entry array back, on
			// the CPU that ran it; its next fill takes one again.
			l.CPU.ReleaseTLB()
		}
		w.leave()
	}()
	for budget > 0 {
		if LState(l.stateA.Load()) != LRun || !p.Alive() {
			return ran
		}
		switch l.phase {
		case phUser:
			w.unlock() // back at user level: run with no locks at all
			// Natural points of control are where the process enters and
			// leaves the kernel; a pending directive or deliverable signal
			// enters it. The gate reads only the intr atomic: everything
			// that makes a signal deliverable, sets a current signal or
			// directs a stop calls noteIntr, so a clear atomic means
			// nothing to deliver. clearIntr then drops the nudge unless
			// something is still left.
			if p.intr.Load() != 0 {
				w.lockGlobal()
				if k.issig(l, false) {
					k.psig(l)
				}
				p.clearIntr()
				w.unlock()
				if LState(l.stateA.Load()) != LRun || !p.Alive() {
					return ran
				}
			}
			tr, n := l.CPU.Run(budget, &p.intr)
			assertBatchGate(l)
			budget -= n
			ran = true
			w.ticks += int64(n)
			w.userTicks += int64(n)
			switch tr.Kind {
			case vcpu.TrapNone:
			case vcpu.TrapSyscall:
				l.sysNum = int(l.CPU.Regs.R[0])
				l.sysEntryDone = false
				l.sysExitDone = false
				l.sysStored = false
				l.abortSys = false
				l.sleepDeadline = 0
				w.syscalls++
				l.phase = phSysEntry
			case vcpu.TrapFault:
				if tr.Fault == types.FLTTRACE {
					// A single step is one instruction; drop the trace bit.
					l.CPU.Regs.PSW &^= uint32(vcpu.FlagTrace)
				}
				l.CurFlt = tr.Fault
				l.FltAddr = tr.Addr
				l.fltStopDone = false
				w.faults++
				if k.ktEnabled(p) {
					w.lockGlobal()
					k.ktFault(l, tr.Fault, tr.Addr)
				}
				l.phase = phFault
			}

		case phSysEntry:
			// A stop on system call entry occurs before the system has
			// fetched the arguments, so a debugger can change them.
			if !l.sysEntryDone && p.Trace.Entry.Has(l.sysNum) {
				l.sysEntryDone = true
				w.lockGlobal()
				l.stopEvent(WhySysEntry, l.sysNum)
				return ran
			}
			l.sysEntryDone = true
			for i := 0; i < 5; i++ {
				l.sysArgs[i] = l.CPU.Regs.R[i+1]
			}
			l.sysArgs[5] = 0
			// The entry event is recorded after the arguments are fetched,
			// so it reflects any changes a debugger made at the entry stop.
			if k.ktEnabled(p) {
				w.lockGlobal()
				k.ktSysEntry(l)
			}
			if l.abortSys {
				// PRSABORT: go directly to system call exit with EINTR.
				l.abortSys = false
				l.sysRet, l.sysR1, l.sysErr = 0, 0, EINTR
				l.phase = phSysExit
				continue
			}
			l.phase = phSysRun

		case phSysRun:
			// Re-entry here after a sleep (or a stop taken while asleep)
			// re-asks the question, as issig() within an interruptible
			// sleep does: a delivered signal makes the call fail EINTR; a
			// requested stop leaves the call undisturbed.
			if p.intr.Load() != 0 {
				w.lockGlobal()
				if l.dstop || l.CurSig != 0 || !p.SigPend.IsEmpty() {
					if k.issig(l, true) {
						l.sysRet, l.sysR1, l.sysErr = 0, 0, EINTR
						l.phase = phSysExit
						continue
					}
					if l.state == LZombie || !p.Alive() || l.Stopped() {
						return ran
					}
				}
			}
			if l.abortSys {
				l.abortSys = false
				l.sysRet, l.sysR1, l.sysErr = 0, 0, EINTR
				l.phase = phSysExit
				continue
			}
			// Take the lock the system call's class requires; taking it
			// folds the quantum's deltas in, so handlers that read the
			// clock or this process's own usage (time, times, alarm)
			// observe their own ticks.
			switch sysClassOf(l.sysNum) {
			case sysLockProc:
				w.lockProc()
			case sysLockGlobal:
				w.lockGlobal()
			}
			res := k.dispatch(l)
			budget--
			ran = true
			w.ticks++
			w.sysTicks++
			if res.NoReturn {
				return ran
			}
			if res.SleepOn != nil {
				w.lockGlobal() // wakers on other CPUs read the sleep state
				// Every sleep is interruptible, and like SVR4's PCATCH
				// sleep it looks for a signal before it blocks: one the
				// call itself unblocked (sigsuspend's mask) or one posted
				// since the gate above, which found no sleeper to wake.
				// The gate takes it: EINTR, or the requested stop.
				if p.intr.Load() != 0 && (l.dstop || l.CurSig != 0 || l.deliverable()) {
					continue
				}
				l.sleep(res.SleepOn)
				return ran
			}
			l.sysRet, l.sysR1, l.sysErr = res.R0, res.R1, res.Err
			if res.SkipStore {
				l.sysStored = true
			}
			l.phase = phSysExit

		case phSysExit:
			// Return values are stored before the exit stop, so a debugger
			// can manufacture whatever values it wishes the process to see.
			if !l.sysStored {
				l.storeSysResult()
				l.sysStored = true
			}
			if !l.sysExitDone && p.Trace.Exit.Has(l.sysNum) {
				l.sysExitDone = true
				w.lockGlobal()
				l.stopEvent(WhySysExit, l.sysNum)
				return ran
			}
			if k.ktEnabled(p) {
				w.lockGlobal()
				k.ktSysExit(l)
			}
			if l.suspSaved != nil {
				l.SetHold(*l.suspSaved)
				l.suspSaved = nil
			}
			l.sysNum = 0
			l.phase = phRetUser

		case phRetUser:
			// Just before returning to user level:
			//	if (issig()) psig();
			// gated, as at the other natural points of control, on the
			// intr atomic: every setter of a deliverable, current or
			// directed-stop condition raises it, and clearIntr refuses to
			// drop it while any of them remain.
			if p.intr.Load() != 0 {
				w.lockGlobal()
				if k.issig(l, false) {
					k.psig(l)
				}
				if l.state == LZombie || !p.Alive() || l.Stopped() {
					return ran
				}
			}
			l.phase = phUser

		case phFault:
			if !l.fltStopDone && p.Trace.Faults.Has(l.CurFlt) {
				l.fltStopDone = true
				w.lockGlobal()
				l.stopEvent(WhyFaulted, l.CurFlt)
				return ran
			}
			flt := l.CurFlt
			if l.clearFlt {
				// PRCFAULT: the debugger repaired the cause (e.g. replaced
				// the breakpoint instruction); re-execute from the same PC.
				l.clearFlt = false
				l.CurFlt = 0
				l.phase = phRetUser
				continue
			}
			l.CurFlt = 0
			// Otherwise the process is sent a signal, normally SIGTRAP or
			// SIGILL for breakpoints.
			if sig := types.FaultSignal(flt); sig != 0 {
				w.lockGlobal()
				k.PostSignal(p, sig)
			}
			l.phase = phRetUser
		}
	}
	// Quantum expiry. The involuntary context switch is charged (and the
	// scheduling tick traced) only when something actually ran: a call
	// that arrives with an exhausted budget, or spends the whole quantum
	// gated, never held the CPU and must not be billed for losing it.
	if ran {
		w.involCtx++
		if k.ktEnabled(p) {
			w.lockGlobal()
			k.ktSchedTick(l)
		}
	}
	return ran
}

// storeSysResult writes the system call results into the saved registers:
// R0 = return value (or errno), R1 = second return value, with the carry
// flag signalling error in the System V convention.
func (l *LWP) storeSysResult() {
	if l.sysErr != 0 {
		l.CPU.Regs.R[0] = uint32(l.sysErr)
		l.CPU.Regs.PSW |= uint32(vcpu.FlagC)
	} else {
		l.CPU.Regs.R[0] = l.sysRet
		l.CPU.Regs.R[1] = l.sysR1
		l.CPU.Regs.PSW &^= uint32(vcpu.FlagC)
	}
}

// dispatch executes the system call the LWP has entered.
func (k *Kernel) dispatch(l *LWP) sysResult {
	num := l.sysNum
	if num < 1 || num > MaxSysNum || sysTable[num].Handler == nil {
		return rerr(ENOSYS)
	}
	return sysTable[num].Handler(k, l)
}
