package procfs2

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
	"repro/internal/wire"
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

// PCSET/PCUNSET flag bits: the kernel's /proc mode bits.
const (
	SetFork = kernel.ModeInhFork // inherit-on-fork
	SetRLC  = kernel.ModeRunLC   // run-on-last-close
)

// runCtl executes a batch of control messages against the file's process
// (or its LWP, for an lwpctl file). It returns the number of bytes
// consumed; an error aborts the batch at the failing message, with
// everything before it applied — like a partial write. Each message is one
// kernel verb, and each verb checks the descriptor first, so a batch stops
// at the first message after a set-id exec invalidated the descriptor.
func (h *fileHandle) runCtl(b []byte) (int, error) {
	w := &wire.Cursor{B: b}
	done := 0
	for w.Len() > 0 {
		if err := h.runOneCtl(w); err != nil {
			if done == 0 {
				return 0, err
			}
			return done, nil
		}
		done = w.Off
	}
	return done, nil
}

// runOneCtl decodes one message and its operand, then applies the verb. A
// truncated operand fails the message with nothing applied.
func (h *fileHandle) runOneCtl(w *wire.Cursor) error {
	code := w.U32()
	if w.Err != nil {
		return w.Err
	}
	switch code {
	case PCNULL:
		return h.Check()
	case PCSTOP, PCDSTOP:
		if err := h.Stop(); err != nil || code == PCDSTOP {
			return err
		}
		fallthrough
	case PCWSTOP:
		return h.WaitStop(h.v.fs.MaxWait, nil)
	case PCRUN:
		if flags, pc := w.U32(), w.U32(); w.Err == nil {
			return h.Run(kernel.RunFlags{
				ClearSig:   flags&RunClearSig != 0,
				ClearFault: flags&RunClearFault != 0,
				Abort:      flags&RunAbort != 0,
				Step:       flags&RunStep != 0,
				Stop:       flags&RunStop != 0,
				SetPC:      flags&RunSetPC != 0,
				PC:         pc,
			})
		}
	case PCSTRACE:
		if s := GetSigSet(w); w.Err == nil {
			return h.SetSigTrace(s)
		}
	case PCSFAULT:
		if s := GetFltSet(w); w.Err == nil {
			return h.SetFaultTrace(s)
		}
	case PCSENTRY:
		if s := GetSysSet(w); w.Err == nil {
			return h.SetEntryTrace(s)
		}
	case PCSEXIT:
		if s := GetSysSet(w); w.Err == nil {
			return h.SetExitTrace(s)
		}
	case PCSSIG:
		if sig := w.U32(); w.Err == nil {
			return h.SetCurSig(int(sig))
		}
	case PCKILL:
		if sig := w.U32(); w.Err == nil {
			return h.Kill(int(sig))
		}
	case PCUNKILL:
		if sig := w.U32(); w.Err == nil {
			return h.UnKill(int(sig))
		}
	case PCSHOLD:
		if s := GetSigSet(w); w.Err == nil {
			return h.SetHold(s)
		}
	case PCSREG:
		if r := GetRegs(w); w.Err == nil {
			return h.SetRegs(r)
		}
	case PCWATCH:
		if addr, length, mode := w.U32(), w.U32(), w.U32(); w.Err == nil {
			return h.Watch(addr, length, mem.Prot(mode))
		}
	case PCCWATCH:
		if addr := w.U32(); w.Err == nil {
			return h.ClearWatch(addr, addr == 0)
		}
	case PCSET, PCUNSET:
		if flags := w.U32(); w.Err == nil {
			return h.SetMode(int(flags), code == PCSET)
		}
	case PCNICE:
		if incr := w.I32(); w.Err == nil {
			return h.Nice(int(incr))
		}
	case PCCFAULT:
		return h.ClearFault()
	case PCTRACE:
		if capacity := w.U32(); w.Err == nil {
			return h.SetKTrace(int(capacity))
		}
	default:
		return vfs.ErrInval
	}
	return w.Err
}

// CtlBuf builds a batch of control messages client-side; its Bytes are
// written to a ctl file in one write(2).
type CtlBuf struct{ w wire.Cursor }

// Bytes returns the encoded batch.
func (c *CtlBuf) Bytes() []byte { return c.w.B }

// Stop appends PCSTOP.
func (c *CtlBuf) Stop() *CtlBuf { c.w.PutU32(PCSTOP); return c }

// DStop appends PCDSTOP.
func (c *CtlBuf) DStop() *CtlBuf { c.w.PutU32(PCDSTOP); return c }

// WStop appends PCWSTOP.
func (c *CtlBuf) WStop() *CtlBuf { c.w.PutU32(PCWSTOP); return c }

// Run appends PCRUN.
func (c *CtlBuf) Run(flags uint32, pc uint32) *CtlBuf {
	c.w.PutU32(PCRUN)
	c.w.PutU32(flags)
	c.w.PutU32(pc)
	return c
}

// STrace appends PCSTRACE.
func (c *CtlBuf) STrace(s types.SigSet) *CtlBuf {
	c.w.PutU32(PCSTRACE)
	PutSigSet(&c.w, s)
	return c
}

// SFault appends PCSFAULT.
func (c *CtlBuf) SFault(s types.FltSet) *CtlBuf {
	c.w.PutU32(PCSFAULT)
	PutFltSet(&c.w, s)
	return c
}

// SEntry appends PCSENTRY.
func (c *CtlBuf) SEntry(s types.SysSet) *CtlBuf {
	c.w.PutU32(PCSENTRY)
	PutSysSet(&c.w, s)
	return c
}

// SExit appends PCSEXIT.
func (c *CtlBuf) SExit(s types.SysSet) *CtlBuf {
	c.w.PutU32(PCSEXIT)
	PutSysSet(&c.w, s)
	return c
}

// SSig appends PCSSIG.
func (c *CtlBuf) SSig(sig int) *CtlBuf {
	c.w.PutU32(PCSSIG)
	c.w.PutU32(uint32(sig))
	return c
}

// Kill appends PCKILL.
func (c *CtlBuf) Kill(sig int) *CtlBuf {
	c.w.PutU32(PCKILL)
	c.w.PutU32(uint32(sig))
	return c
}

// UnKill appends PCUNKILL.
func (c *CtlBuf) UnKill(sig int) *CtlBuf {
	c.w.PutU32(PCUNKILL)
	c.w.PutU32(uint32(sig))
	return c
}

// SHold appends PCSHOLD.
func (c *CtlBuf) SHold(s types.SigSet) *CtlBuf {
	c.w.PutU32(PCSHOLD)
	PutSigSet(&c.w, s)
	return c
}

// SReg appends PCSREG.
func (c *CtlBuf) SReg(r vcpu.Regs) *CtlBuf {
	c.w.PutU32(PCSREG)
	PutRegs(&c.w, r)
	return c
}

// Watch appends PCWATCH.
func (c *CtlBuf) Watch(addr, length, mode uint32) *CtlBuf {
	c.w.PutU32(PCWATCH)
	c.w.PutU32(addr)
	c.w.PutU32(length)
	c.w.PutU32(mode)
	return c
}

// CWatch appends PCCWATCH.
func (c *CtlBuf) CWatch(addr uint32) *CtlBuf {
	c.w.PutU32(PCCWATCH)
	c.w.PutU32(addr)
	return c
}

// Set appends PCSET.
func (c *CtlBuf) Set(flags uint32) *CtlBuf {
	c.w.PutU32(PCSET)
	c.w.PutU32(flags)
	return c
}

// Unset appends PCUNSET.
func (c *CtlBuf) Unset(flags uint32) *CtlBuf {
	c.w.PutU32(PCUNSET)
	c.w.PutU32(flags)
	return c
}

// Nice appends PCNICE.
func (c *CtlBuf) Nice(incr int) *CtlBuf {
	c.w.PutU32(PCNICE)
	c.w.PutU32(uint32(incr))
	return c
}

// CFault appends PCCFAULT.
func (c *CtlBuf) CFault() *CtlBuf { c.w.PutU32(PCCFAULT); return c }

// Trace appends PCTRACE: enable (or resize) per-process event tracing with
// a ring of capacity events; 0 disables.
func (c *CtlBuf) Trace(capacity int) *CtlBuf {
	c.w.PutU32(PCTRACE)
	c.w.PutU32(uint32(capacity))
	return c
}
