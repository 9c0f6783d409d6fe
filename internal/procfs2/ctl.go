package procfs2

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// Control message codes written to ctl/lwpctl files. Each message is a
// 32-bit code followed by its fixed-size operand; several messages can be
// combined in a single write — the batching the paper argues improves
// applications for which the number of system calls is a bottleneck.
const (
	PCNULL   = iota // no-op
	PCSTOP          // direct to stop and wait for it
	PCDSTOP         // direct to stop without waiting
	PCWSTOP         // wait for a stop on an event of interest
	PCRUN           // make runnable: [flags u32][pc u32]
	PCSTRACE        // set traced signals: [sigset 2xu64]
	PCSFAULT        // set traced faults: [fltset 2xu64]
	PCSENTRY        // set traced syscall entries: [sysset 8xu64]
	PCSEXIT         // set traced syscall exits: [sysset 8xu64]
	PCSSIG          // set current signal: [sig u32] (0 clears)
	PCKILL          // send a signal: [sig u32]
	PCUNKILL        // delete a pending signal: [sig u32]
	PCSHOLD         // set held signals: [sigset 2xu64]
	PCSREG          // set registers: [11xu32]
	PCWATCH         // set a watchpoint: [addr u32][len u32][mode u32]
	PCCWATCH        // clear watchpoints: [addr u32] (0 clears all)
	PCSET           // set mode flags: [flags u32]
	PCUNSET         // clear mode flags: [flags u32]
	PCNICE          // adjust priority: [incr i32]
	PCCFAULT        // clear the current fault
	PCTRACE         // set event tracing: [cap u32] (events; 0 disables)
)

// PCRUN flag bits.
const (
	RunClearSig   = 1 << iota // PRCSIG
	RunClearFault             // PRCFAULT
	RunAbort                  // PRSABORT
	RunStep                   // PRSTEP
	RunStop                   // PRSTOP
	RunSetPC                  // PRSVADDR: use the pc operand
)

// PCSET/PCUNSET flag bits.
const (
	SetFork = 1 << iota // inherit-on-fork
	SetRLC              // run-on-last-close
)

// runCtl executes a batch of control messages against a process (or one
// LWP, when l is non-nil). It returns the number of bytes consumed; an error
// aborts the batch at the failing message, with everything before it
// applied — like a partial write.
func (fs *FS) runCtl(p *kernel.Proc, l *kernel.LWP, b []byte) (int, error) {
	w := &wire{b: b}
	done := 0
	for w.off < len(w.b) {
		if err := fs.runOneCtl(p, l, w); err != nil {
			if done == 0 {
				return 0, err
			}
			return done, nil
		}
		if w.err != nil {
			if done == 0 {
				return 0, w.err
			}
			return done, nil
		}
		done = w.off
	}
	return done, nil
}

// target picks the LWP a control message applies to.
func (fs *FS) target(p *kernel.Proc, l *kernel.LWP) *kernel.LWP {
	if l != nil {
		return l
	}
	return p.Rep()
}

// eventTarget picks the LWP for run directives.
func (fs *FS) eventTarget(p *kernel.Proc, l *kernel.LWP) *kernel.LWP {
	if l != nil {
		return l
	}
	return p.EventStoppedLWP()
}

func (fs *FS) runOneCtl(p *kernel.Proc, l *kernel.LWP, w *wire) error {
	code := int(w.u32())
	if w.err != nil {
		return w.err
	}
	// Control messages arrive from host-side controllers that may run
	// concurrently with the SMP scheduler, so each message applies under
	// the kernel's cross-process locks: the global kernel lock plus the
	// target's per-process lock (no-ops in deterministic mode). The
	// wait-style messages are the exception — WaitStop/WaitLWPStop drive
	// the scheduler and must run unlocked — so they are dispatched first,
	// with only the stop directive itself under the locks.
	switch code {
	case PCSTOP, PCDSTOP:
		fs.K.GlobalLock()
		p.Lock()
		if l != nil {
			l.DirectStop()
		} else {
			p.DirectStopAll()
		}
		p.Unlock()
		fs.K.GlobalUnlock()
		if code == PCDSTOP {
			return nil
		}
		fallthrough
	case PCWSTOP:
		if l != nil {
			return fs.K.WaitLWPStop(l, fs.MaxWait)
		}
		_, err := fs.K.WaitStop(p, fs.MaxWait)
		return err
	}

	fs.K.GlobalLock()
	p.Lock()
	defer func() {
		p.Unlock()
		fs.K.GlobalUnlock()
	}()
	switch code {
	case PCNULL:
		return nil
	case PCRUN:
		flags := w.u32()
		pc := w.u32()
		if w.err != nil {
			return w.err
		}
		t := fs.eventTarget(p, l)
		if t == nil {
			return vfs.Errorf("procfs2: PCRUN: %v", kernel.ErrNotStopped)
		}
		return fs.K.RunLWP(t, kernel.RunFlags{
			ClearSig:   flags&RunClearSig != 0,
			ClearFault: flags&RunClearFault != 0,
			Abort:      flags&RunAbort != 0,
			Step:       flags&RunStep != 0,
			Stop:       flags&RunStop != 0,
			SetPC:      flags&RunSetPC != 0,
			PC:         pc,
		})
	case PCSTRACE:
		p.Trace.Sigs = w.sigSet()
		return w.err
	case PCSFAULT:
		p.Trace.Faults = w.fltSet()
		return w.err
	case PCSENTRY:
		p.Trace.Entry = w.sysSet()
		return w.err
	case PCSEXIT:
		p.Trace.Exit = w.sysSet()
		return w.err
	case PCSSIG:
		sig := int(w.u32())
		if w.err != nil {
			return w.err
		}
		if sig < 0 || sig > types.MaxSig {
			return vfs.ErrInval
		}
		t := fs.target(p, l)
		if t == nil {
			return vfs.ErrNotExist
		}
		t.SetCurSig(sig)
		return nil
	case PCKILL:
		sig := int(w.u32())
		if w.err != nil {
			return w.err
		}
		if sig < 1 || sig > types.MaxSig {
			return vfs.ErrInval
		}
		fs.K.PostSignal(p, sig)
		return nil
	case PCUNKILL:
		sig := int(w.u32())
		if w.err != nil {
			return w.err
		}
		p.UnKill(sig)
		return nil
	case PCSHOLD:
		hold := w.sigSet()
		if w.err != nil {
			return w.err
		}
		t := fs.target(p, l)
		if t == nil {
			return vfs.ErrNotExist
		}
		t.SetHold(hold)
		return nil
	case PCSREG:
		regs := w.regs()
		if w.err != nil {
			return w.err
		}
		t := fs.target(p, l)
		if t == nil {
			return vfs.ErrNotExist
		}
		t.CPU.Regs = regs
		return nil
	case PCWATCH:
		addr, length, mode := w.u32(), w.u32(), w.u32()
		if w.err != nil {
			return w.err
		}
		if p.AS == nil || length == 0 {
			return vfs.ErrInval
		}
		p.AS.SetWatch(addr, length, mem.Prot(mode))
		return nil
	case PCCWATCH:
		addr := w.u32()
		if w.err != nil {
			return w.err
		}
		if p.AS == nil {
			return vfs.ErrInval
		}
		if addr == 0 {
			p.AS.ClearAllWatches()
		} else {
			p.AS.ClearWatch(addr)
		}
		return nil
	case PCSET, PCUNSET:
		flags := w.u32()
		if w.err != nil {
			return w.err
		}
		on := code == PCSET
		if flags&SetFork != 0 {
			p.Trace.InhFork = on
		}
		if flags&SetRLC != 0 {
			p.Trace.RunLC = on
		}
		return nil
	case PCNICE:
		incr := int(w.i32())
		if w.err != nil {
			return w.err
		}
		p.SetNice(incr)
		return nil
	case PCCFAULT:
		t := fs.eventTarget(p, l)
		if t == nil {
			return vfs.Errorf("procfs2: PCCFAULT: %v", kernel.ErrNotStopped)
		}
		t.CurFlt = 0
		return nil
	case PCTRACE:
		capacity := w.u32()
		if w.err != nil {
			return w.err
		}
		p.SetKTrace(int(capacity))
		return nil
	}
	return vfs.ErrInval
}

// CtlBuf builds a batch of control messages client-side; its Bytes are
// written to a ctl file in one write(2).
type CtlBuf struct{ w wire }

// Bytes returns the encoded batch.
func (c *CtlBuf) Bytes() []byte { return c.w.b }

// Stop appends PCSTOP.
func (c *CtlBuf) Stop() *CtlBuf { c.w.putU32(PCSTOP); return c }

// DStop appends PCDSTOP.
func (c *CtlBuf) DStop() *CtlBuf { c.w.putU32(PCDSTOP); return c }

// WStop appends PCWSTOP.
func (c *CtlBuf) WStop() *CtlBuf { c.w.putU32(PCWSTOP); return c }

// Run appends PCRUN.
func (c *CtlBuf) Run(flags uint32, pc uint32) *CtlBuf {
	c.w.putU32(PCRUN)
	c.w.putU32(flags)
	c.w.putU32(pc)
	return c
}

// STrace appends PCSTRACE.
func (c *CtlBuf) STrace(s types.SigSet) *CtlBuf {
	c.w.putU32(PCSTRACE)
	c.w.putSigSet(s)
	return c
}

// SFault appends PCSFAULT.
func (c *CtlBuf) SFault(s types.FltSet) *CtlBuf {
	c.w.putU32(PCSFAULT)
	c.w.putFltSet(s)
	return c
}

// SEntry appends PCSENTRY.
func (c *CtlBuf) SEntry(s types.SysSet) *CtlBuf {
	c.w.putU32(PCSENTRY)
	c.w.putSysSet(s)
	return c
}

// SExit appends PCSEXIT.
func (c *CtlBuf) SExit(s types.SysSet) *CtlBuf {
	c.w.putU32(PCSEXIT)
	c.w.putSysSet(s)
	return c
}

// SSig appends PCSSIG.
func (c *CtlBuf) SSig(sig int) *CtlBuf {
	c.w.putU32(PCSSIG)
	c.w.putU32(uint32(sig))
	return c
}

// Kill appends PCKILL.
func (c *CtlBuf) Kill(sig int) *CtlBuf {
	c.w.putU32(PCKILL)
	c.w.putU32(uint32(sig))
	return c
}

// UnKill appends PCUNKILL.
func (c *CtlBuf) UnKill(sig int) *CtlBuf {
	c.w.putU32(PCUNKILL)
	c.w.putU32(uint32(sig))
	return c
}

// SHold appends PCSHOLD.
func (c *CtlBuf) SHold(s types.SigSet) *CtlBuf {
	c.w.putU32(PCSHOLD)
	c.w.putSigSet(s)
	return c
}

// SReg appends PCSREG.
func (c *CtlBuf) SReg(r vcpu.Regs) *CtlBuf {
	c.w.putU32(PCSREG)
	c.w.putRegs(r)
	return c
}

// Watch appends PCWATCH.
func (c *CtlBuf) Watch(addr, length, mode uint32) *CtlBuf {
	c.w.putU32(PCWATCH)
	c.w.putU32(addr)
	c.w.putU32(length)
	c.w.putU32(mode)
	return c
}

// CWatch appends PCCWATCH.
func (c *CtlBuf) CWatch(addr uint32) *CtlBuf {
	c.w.putU32(PCCWATCH)
	c.w.putU32(addr)
	return c
}

// Set appends PCSET.
func (c *CtlBuf) Set(flags uint32) *CtlBuf {
	c.w.putU32(PCSET)
	c.w.putU32(flags)
	return c
}

// Unset appends PCUNSET.
func (c *CtlBuf) Unset(flags uint32) *CtlBuf {
	c.w.putU32(PCUNSET)
	c.w.putU32(flags)
	return c
}

// Nice appends PCNICE.
func (c *CtlBuf) Nice(incr int) *CtlBuf {
	c.w.putU32(PCNICE)
	c.w.putI32(int32(incr))
	return c
}

// CFault appends PCCFAULT.
func (c *CtlBuf) CFault() *CtlBuf { c.w.putU32(PCCFAULT); return c }

// Trace appends PCTRACE: enable (or resize) per-process event tracing with
// a ring of capacity events; 0 disables.
func (c *CtlBuf) Trace(capacity int) *CtlBuf {
	c.w.putU32(PCTRACE)
	c.w.putU32(uint32(capacity))
	return c
}
