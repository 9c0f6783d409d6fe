package procfs

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// The /proc ioctl operations (prioctl). The names and semantics follow the
// SVR4 proc(4) manual page; the last group implements the paper's proposed
// extensions (resource usage, watchpoints, page data).
const (
	PIOCSTATUS = iota + 0x500 // get process status (arg *kernel.ProcStatus, may be nil)
	PIOCSTOP                  // direct the process to stop and wait for it
	PIOCWSTOP                 // wait for the process to stop on an event of interest
	PIOCRUN                   // make a stopped process runnable (arg *kernel.RunFlags, may be nil)
	PIOCSTRACE                // define the set of traced signals (arg *types.SigSet)
	PIOCGTRACE                // get the set of traced signals
	PIOCSSIG                  // set the current signal (arg *int; nil or 0 clears)
	PIOCKILL                  // send a signal (arg *int)
	PIOCUNKILL                // delete a pending signal (arg *int)
	PIOCSHOLD                 // set the held (blocked) signal set (arg *types.SigSet)
	PIOCGHOLD                 // get the held signal set
	PIOCMAXSIG                // get the highest signal number (arg *int)
	PIOCACTION                // get the signal actions for every signal (arg *[]kernel.SigAction)
	PIOCSFAULT                // define the set of traced machine faults (arg *types.FltSet)
	PIOCGFAULT                // get the set of traced faults
	PIOCCFAULT                // clear the current fault
	PIOCSENTRY                // define the set of traced syscall entries (arg *types.SysSet)
	PIOCGENTRY                // get the traced entry set
	PIOCSEXIT                 // define the set of traced syscall exits (arg *types.SysSet)
	PIOCGEXIT                 // get the traced exit set
	PIOCSFORK                 // set inherit-on-fork
	PIOCRFORK                 // reset inherit-on-fork
	PIOCSRLC                  // set run-on-last-close
	PIOCRRLC                  // reset run-on-last-close
	PIOCGREG                  // get the general registers (arg *vcpu.Regs)
	PIOCSREG                  // set the general registers (arg *vcpu.Regs)
	PIOCGFPREG                // get the floating point registers (arg *vcpu.FPRegs)
	PIOCSFPREG                // set the floating point registers (arg *vcpu.FPRegs)
	PIOCNMAP                  // get the number of mappings (arg *int)
	PIOCMAP                   // get the memory map (arg *[]PrMap)
	PIOCOPENM                 // open the mapped object at a vaddr (arg *OpenMap)
	PIOCCRED                  // get credentials (arg *types.Cred)
	PIOCGROUPS                // get supplementary groups (arg *[]int)
	PIOCPSINFO                // get everything ps wants (arg *kernel.PSInfo)
	PIOCNICE                  // change priority (arg *int)
	PIOCGETPR                 // get the proc structure (deprecated; arg **kernel.Proc)
	PIOCGETU                  // get the user area (deprecated; arg *UArea)

	// Proposed extensions implemented here.
	PIOCUSAGE  // resource usage (arg *PrUsage)
	PIOCSWATCH // set a data watchpoint (arg *PrWatch)
	PIOCCWATCH // clear watchpoints (arg *uint32 for one address; nil for all)
	PIOCGWATCH // get the watchpoints (arg *[]PrWatch)
	PIOCPGD    // page data: per-mapping private page counts (arg *[]PageData)

	// PIOCSNAP is issued on the /proc directory itself, not a process file:
	// one open plus one ioctl returns status/usage records for every visible
	// process, with a table-revision token so a retry detects churn
	// (arg *PrSnap).
	PIOCSNAP
)

// PrMap is one entry of the PIOCMAP result, the prmap_t analogue: a virtual
// address, a length, permissions and attributes of one mapping.
type PrMap struct {
	Vaddr  uint32
	Size   uint32
	Off    int64
	Prot   mem.Prot
	Shared bool
	Kind   mem.SegKind
	Name   string // backing object name
}

// OpenMap is the PIOCOPENM argument/result: given a virtual address, a
// read-only open of the underlying mapped object — this is how a debugger
// finds executable and shared library symbol tables without knowing
// pathnames. A nil Vaddr means the process's own executable file.
type OpenMap struct {
	Vaddr *uint32   // address inside the mapping of interest; nil = a.out
	File  *vfs.File // out: a read-only open of the mapped object
}

// UArea is the deprecated PIOCGETU result: a copy of the parts of the user
// area worth exposing. Its use ties a program to this implementation.
type UArea struct {
	CWD   string
	Umask uint16
	Args  []string
	FDs   []int
}

// PrWatch describes one watchpoint for PIOCSWATCH/PIOCGWATCH.
type PrWatch struct {
	Vaddr uint32
	Size  uint32
	Mode  mem.Prot // ProtRead and/or ProtWrite
}

// PrUsage is the PIOCUSAGE result: kernel accounting plus page-level counts.
type PrUsage struct {
	kernel.Usage
	MinorFaults  int64
	COWFaults    int64
	WatchRecover int64
	StackGrows   int64
}

// UsageOf assembles p's PIOCUSAGE record: the kernel's accounting plus the
// address space's page-event counts.
func UsageOf(p *kernel.Proc) PrUsage {
	u := PrUsage{Usage: p.Usage}
	if p.AS != nil {
		st := p.AS.StatsSnap()
		u.MinorFaults = st.MinorFaults
		u.COWFaults = st.COWFaults
		u.WatchRecover = st.WatchRecover
		u.StackGrows = st.GrowStack
	}
	return u
}

// PageData is one entry of the PIOCPGD result: which mappings have private
// (modified) pages — the page-level modified information of the proposed
// performance-monitor interface.
type PageData struct {
	Vaddr        uint32
	Pages        int
	PrivatePages int
}

// HIoctl implements vfs.Handle: prioctl, the information and control half of
// the interface. Operations that modify process state or behavior require
// the descriptor to be open for writing; read-only inspection operations do
// not.
func (h *Handle) HIoctl(cmd int, arg interface{}) error {
	// PIOCPSINFO works even on zombies; everything else requires a live,
	// valid handle.
	if cmd == PIOCPSINFO {
		if h.closed {
			return vfs.ErrBadFD
		}
		out, ok := arg.(*kernel.PSInfo)
		if !ok {
			return vfs.ErrInval
		}
		h.fs.K.GlobalLock()
		h.p.Lock()
		*out = h.p.PSInfo()
		h.p.Unlock()
		h.fs.K.GlobalUnlock()
		return nil
	}
	p := h.p
	k := h.fs.K

	// check validates the handle and the operation; it runs with the locks
	// below held because it reads process state (liveness, the exec
	// generation) that the scheduler mutates. Operations that build scratch
	// state (snapshots, map tables, watchpoint lists, descriptor images)
	// are the ioctl layer's allocation choke point; an injected failure
	// surfaces as EAGAIN, the paper's errno for a transiently unsatisfiable
	// request.
	check := func() error {
		if err := h.valid(); err != nil {
			return err
		}
		if h.writeOp(cmd) && h.flags&vfs.OWrite == 0 {
			return vfs.ErrBadFD
		}
		switch cmd {
		case PIOCACTION, PIOCMAP, PIOCGWATCH, PIOCPGD, PIOCGROUPS, PIOCOPENM:
			if siteFaultIoctl.Hit(h.p.Pid) {
				return vfs.ErrAgain
			}
		}
		return nil
	}

	// Ioctls arrive from host-side controllers (debuggers, ps, tests) that
	// may run concurrently with the SMP scheduler, so they follow the
	// kernel's cross-process locking contract: the global kernel lock plus
	// the target's per-process lock (both no-ops in deterministic mode).
	// The two wait-style commands are exceptions — WaitStop drives the
	// scheduler and must run unlocked — so they are handled first;
	// PIOCSTOP locks only around the stop directive itself.
	switch cmd {
	case PIOCSTOP:
		k.GlobalLock()
		p.Lock()
		if err := check(); err != nil {
			p.Unlock()
			k.GlobalUnlock()
			return err
		}
		p.DirectStopAll()
		p.Unlock()
		k.GlobalUnlock()
		l, err := k.WaitStop(p, h.fs.MaxWait)
		if err != nil {
			return vfs.Errorf("procfs: PIOCSTOP: %v", err)
		}
		if out, ok := arg.(*kernel.ProcStatus); ok && out != nil {
			k.GlobalLock()
			p.Lock()
			*out = l.LWPStatus()
			p.Unlock()
			k.GlobalUnlock()
		}
		return nil

	case PIOCWSTOP:
		k.GlobalLock()
		p.Lock()
		err := check()
		p.Unlock()
		k.GlobalUnlock()
		if err != nil {
			return err
		}
		l, err := k.WaitStop(p, h.fs.MaxWait)
		if err != nil {
			return vfs.Errorf("procfs: PIOCWSTOP: %v", err)
		}
		if out, ok := arg.(*kernel.ProcStatus); ok && out != nil {
			k.GlobalLock()
			p.Lock()
			*out = l.LWPStatus()
			p.Unlock()
			k.GlobalUnlock()
		}
		return nil
	}

	k.GlobalLock()
	p.Lock()
	defer func() {
		p.Unlock()
		k.GlobalUnlock()
	}()
	if err := check(); err != nil {
		return err
	}
	switch cmd {
	case PIOCSTATUS:
		st, err := p.Status()
		if err != nil {
			return vfs.ErrNotExist
		}
		if out, ok := arg.(*kernel.ProcStatus); ok && out != nil {
			*out = st
		}
		return nil

	case PIOCRUN:
		l := p.EventStoppedLWP()
		if l == nil {
			return vfs.Errorf("procfs: PIOCRUN: %v", kernel.ErrNotStopped)
		}
		var flags kernel.RunFlags
		if in, ok := arg.(*kernel.RunFlags); ok && in != nil {
			flags = *in
		}
		return h.fs.K.RunLWP(l, flags)

	case PIOCSTRACE:
		in, ok := arg.(*types.SigSet)
		if !ok {
			return vfs.ErrInval
		}
		p.Trace.Sigs = *in
		return nil
	case PIOCGTRACE:
		out, ok := arg.(*types.SigSet)
		if !ok {
			return vfs.ErrInval
		}
		*out = p.Trace.Sigs
		return nil

	case PIOCSSIG:
		sig := 0
		if in, ok := arg.(*int); ok && in != nil {
			sig = *in
		}
		if sig < 0 || sig > types.MaxSig {
			return vfs.ErrInval
		}
		l := p.Rep()
		if l == nil {
			return vfs.ErrNotExist
		}
		l.SetCurSig(sig)
		return nil
	case PIOCKILL:
		in, ok := arg.(*int)
		if !ok || *in < 1 || *in > types.MaxSig {
			return vfs.ErrInval
		}
		h.fs.K.PostSignal(p, *in)
		return nil
	case PIOCUNKILL:
		in, ok := arg.(*int)
		if !ok || *in < 1 || *in > types.MaxSig {
			return vfs.ErrInval
		}
		p.UnKill(*in)
		return nil

	case PIOCSHOLD:
		in, ok := arg.(*types.SigSet)
		if !ok {
			return vfs.ErrInval
		}
		l := p.Rep()
		if l == nil {
			return vfs.ErrNotExist
		}
		l.SetHold(*in)
		return nil
	case PIOCGHOLD:
		out, ok := arg.(*types.SigSet)
		if !ok {
			return vfs.ErrInval
		}
		if l := p.Rep(); l != nil {
			*out = l.SigHold
		}
		return nil
	case PIOCMAXSIG:
		out, ok := arg.(*int)
		if !ok {
			return vfs.ErrInval
		}
		*out = types.MaxSig
		return nil
	case PIOCACTION:
		out, ok := arg.(*[]kernel.SigAction)
		if !ok {
			return vfs.ErrInval
		}
		acts := make([]kernel.SigAction, types.MaxSig+1)
		for sig := 1; sig <= types.MaxSig; sig++ {
			acts[sig] = p.SigActionOf(sig)
		}
		*out = acts
		return nil

	case PIOCSFAULT:
		in, ok := arg.(*types.FltSet)
		if !ok {
			return vfs.ErrInval
		}
		p.Trace.Faults = *in
		return nil
	case PIOCGFAULT:
		out, ok := arg.(*types.FltSet)
		if !ok {
			return vfs.ErrInval
		}
		*out = p.Trace.Faults
		return nil
	case PIOCCFAULT:
		l := p.EventStoppedLWP()
		if l == nil {
			return vfs.Errorf("procfs: PIOCCFAULT: %v", kernel.ErrNotStopped)
		}
		l.CurFlt = 0
		return nil

	case PIOCSENTRY:
		in, ok := arg.(*types.SysSet)
		if !ok {
			return vfs.ErrInval
		}
		p.Trace.Entry = *in
		return nil
	case PIOCGENTRY:
		out, ok := arg.(*types.SysSet)
		if !ok {
			return vfs.ErrInval
		}
		*out = p.Trace.Entry
		return nil
	case PIOCSEXIT:
		in, ok := arg.(*types.SysSet)
		if !ok {
			return vfs.ErrInval
		}
		p.Trace.Exit = *in
		return nil
	case PIOCGEXIT:
		out, ok := arg.(*types.SysSet)
		if !ok {
			return vfs.ErrInval
		}
		*out = p.Trace.Exit
		return nil

	case PIOCSFORK:
		p.Trace.InhFork = true
		return nil
	case PIOCRFORK:
		p.Trace.InhFork = false
		return nil
	case PIOCSRLC:
		p.Trace.RunLC = true
		return nil
	case PIOCRRLC:
		p.Trace.RunLC = false
		return nil

	case PIOCGREG:
		out, ok := arg.(*vcpu.Regs)
		if !ok {
			return vfs.ErrInval
		}
		l := p.Rep()
		if l == nil {
			return vfs.ErrNotExist
		}
		*out = l.CPU.Regs
		return nil
	case PIOCSREG:
		in, ok := arg.(*vcpu.Regs)
		if !ok {
			return vfs.ErrInval
		}
		l := p.Rep()
		if l == nil {
			return vfs.ErrNotExist
		}
		l.CPU.Regs = *in
		return nil
	case PIOCGFPREG:
		out, ok := arg.(*vcpu.FPRegs)
		if !ok {
			return vfs.ErrInval
		}
		l := p.Rep()
		if l == nil {
			return vfs.ErrNotExist
		}
		*out = l.CPU.FP
		return nil
	case PIOCSFPREG:
		in, ok := arg.(*vcpu.FPRegs)
		if !ok {
			return vfs.ErrInval
		}
		l := p.Rep()
		if l == nil {
			return vfs.ErrNotExist
		}
		l.CPU.FP = *in
		return nil

	case PIOCNMAP:
		out, ok := arg.(*int)
		if !ok {
			return vfs.ErrInval
		}
		if p.AS == nil {
			*out = 0
			return nil
		}
		*out = p.AS.NSegs()
		return nil
	case PIOCMAP:
		out, ok := arg.(*[]PrMap)
		if !ok {
			return vfs.ErrInval
		}
		*out = h.MapEntries()
		return nil

	case PIOCOPENM:
		om, ok := arg.(*OpenMap)
		if !ok {
			return vfs.ErrInval
		}
		return h.openMapped(om)

	case PIOCCRED:
		out, ok := arg.(*types.Cred)
		if !ok {
			return vfs.ErrInval
		}
		*out = p.Credentials()
		return nil
	case PIOCGROUPS:
		out, ok := arg.(*[]int)
		if !ok {
			return vfs.ErrInval
		}
		*out = append([]int(nil), p.Cred.Groups...)
		return nil

	case PIOCNICE:
		in, ok := arg.(*int)
		if !ok {
			return vfs.ErrInval
		}
		p.SetNice(*in)
		return nil

	case PIOCGETPR:
		// Deprecated: exposes the implementation's proc structure, tying
		// the caller to this version of the system.
		out, ok := arg.(**kernel.Proc)
		if !ok {
			return vfs.ErrInval
		}
		*out = p
		return nil
	case PIOCGETU:
		out, ok := arg.(*UArea)
		if !ok {
			return vfs.ErrInval
		}
		*out = UArea{
			CWD: p.CWD, Umask: p.Umask,
			Args: append([]string(nil), p.Args...),
			FDs:  p.FDs(),
		}
		return nil

	case PIOCUSAGE:
		out, ok := arg.(*PrUsage)
		if !ok {
			return vfs.ErrInval
		}
		*out = UsageOf(p)
		return nil

	case PIOCSWATCH:
		in, ok := arg.(*PrWatch)
		if !ok || in.Size == 0 {
			return vfs.ErrInval
		}
		if p.AS == nil {
			return vfs.ErrInval
		}
		p.AS.SetWatch(in.Vaddr, in.Size, in.Mode)
		return nil
	case PIOCCWATCH:
		if p.AS == nil {
			return vfs.ErrInval
		}
		if addr, ok := arg.(*uint32); ok && addr != nil {
			p.AS.ClearWatch(*addr)
		} else {
			p.AS.ClearAllWatches()
		}
		return nil
	case PIOCGWATCH:
		out, ok := arg.(*[]PrWatch)
		if !ok {
			return vfs.ErrInval
		}
		if p.AS == nil {
			*out = nil
			return nil
		}
		var ws []PrWatch
		for _, w := range p.AS.WatchesView() {
			ws = append(ws, PrWatch{Vaddr: w.Addr, Size: w.Len, Mode: w.Mode})
		}
		*out = ws
		return nil

	case PIOCPGD:
		out, ok := arg.(*[]PageData)
		if !ok {
			return vfs.ErrInval
		}
		if p.AS == nil {
			*out = nil
			return nil
		}
		var pd []PageData
		ps := int(p.AS.PageSize())
		for _, s := range p.AS.SegsView() {
			pd = append(pd, PageData{
				Vaddr:        s.Base,
				Pages:        (int(s.Len) + ps - 1) / ps,
				PrivatePages: s.PrivatePages(),
			})
		}
		*out = pd
		return nil
	}
	return vfs.ErrNoIoctl
}

// writeOp classifies operations that modify process state or behavior
// ("read/write" operations) versus those that merely inspect it
// ("read-only" operations).
func (h *Handle) writeOp(cmd int) bool {
	switch cmd {
	case PIOCSTATUS, PIOCGTRACE, PIOCGFAULT, PIOCGENTRY, PIOCGEXIT,
		PIOCGREG, PIOCGFPREG, PIOCNMAP, PIOCMAP, PIOCCRED, PIOCGROUPS,
		PIOCPSINFO, PIOCGHOLD, PIOCMAXSIG, PIOCACTION, PIOCGETPR, PIOCGETU,
		PIOCUSAGE, PIOCGWATCH, PIOCPGD, PIOCOPENM:
		return false
	}
	return true
}

// MapEntries extracts the memory map (PIOCMAP).
func (h *Handle) MapEntries() []PrMap {
	if h.p.AS == nil {
		return nil
	}
	var out []PrMap
	for _, s := range h.p.AS.SegsView() {
		out = append(out, PrMap{
			Vaddr: s.Base, Size: s.Len, Off: s.Off,
			Prot: s.Prot, Shared: s.Shared, Kind: s.Kind, Name: s.ObjName(),
		})
	}
	return out
}

// openMapped implements PIOCOPENM: return a read-only descriptor for the
// object mapped at a virtual address (or the a.out itself), enabling a
// debugger to find symbol tables without knowing pathnames.
func (h *Handle) openMapped(om *OpenMap) error {
	p := h.p
	var vn vfs.Vnode
	if om.Vaddr == nil {
		vn = p.ExecVN
	} else {
		if p.AS == nil {
			return vfs.ErrInval
		}
		seg := p.AS.FindSeg(*om.Vaddr)
		if seg == nil || seg.Obj == nil {
			return vfs.ErrInval
		}
		v, ok := seg.Obj.(vfs.Vnode)
		if !ok {
			return vfs.ErrNotSup
		}
		vn = v
	}
	if vn == nil {
		return vfs.ErrNotExist
	}
	// The object is opened with the system's own credentials: the check
	// that mattered was the /proc open itself.
	handle, err := vn.VOpen(vfs.ORead, types.RootCred())
	if err != nil {
		return err
	}
	om.File = &vfs.File{VN: vn, H: handle, Flags: vfs.ORead}
	return nil
}
