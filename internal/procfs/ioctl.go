package procfs

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/types"
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
// the interface. Every operation that modifies process state or behavior is
// decoded into a call of the kernel's /proc verb, which requires the
// descriptor to be open for writing; the read-only operations are answered
// by get.
func (h *Handle) HIoctl(cmd int, arg interface{}) error {
	switch cmd {
	case PIOCSTOP:
		if err := h.Stop(); err != nil {
			return err
		}
		fallthrough
	case PIOCWSTOP:
		st, _ := arg.(*kernel.ProcStatus)
		return h.WaitStop(h.fs.MaxWait, st)
	case PIOCRUN:
		var rf kernel.RunFlags
		if in, ok := arg.(*kernel.RunFlags); ok && in != nil {
			rf = *in
		}
		return h.Run(rf)
	case PIOCSSIG:
		sig := 0
		if in, ok := arg.(*int); ok && in != nil {
			sig = *in
		}
		return h.SetCurSig(sig)
	case PIOCKILL:
		return with(arg, h.Kill)
	case PIOCUNKILL:
		return with(arg, h.UnKill)
	case PIOCNICE:
		return with(arg, h.Nice)
	case PIOCSTRACE:
		return with(arg, h.SetSigTrace)
	case PIOCSHOLD:
		return with(arg, h.SetHold)
	case PIOCSFAULT:
		return with(arg, h.SetFaultTrace)
	case PIOCCFAULT:
		return h.ClearFault()
	case PIOCSENTRY:
		return with(arg, h.SetEntryTrace)
	case PIOCSEXIT:
		return with(arg, h.SetExitTrace)
	case PIOCSFORK, PIOCRFORK:
		return h.SetMode(kernel.ModeInhFork, cmd == PIOCSFORK)
	case PIOCSRLC, PIOCRRLC:
		return h.SetMode(kernel.ModeRunLC, cmd == PIOCSRLC)
	case PIOCSREG:
		return with(arg, h.SetRegs)
	case PIOCSFPREG:
		return with(arg, h.SetFPRegs)
	case PIOCSWATCH:
		return with(arg, func(w PrWatch) error { return h.Watch(w.Vaddr, w.Size, w.Mode) })
	case PIOCCWATCH:
		if addr, ok := arg.(*uint32); ok && addr != nil {
			return h.ClearWatch(*addr, false)
		}
		return h.ClearWatch(0, true)
	case PIOCPSINFO:
		// PIOCPSINFO works even on zombies: it needs only an open
		// descriptor.
		if h.Closed() {
			return vfs.ErrBadFD
		}
		h.P.Lock()
		info := h.P.PSInfo()
		h.P.Unlock()
		return put(arg, info)
	}
	// No defer: with this many returns the compiler cannot open-code one,
	// and the deferred call costs a measurable share of a status read.
	if err := h.Lock(false); err != nil {
		return err
	}
	err := get(h.P, cmd, arg)
	h.Unlock()
	return err
}

// with decodes an ioctl operand of type *T and passes its value to a verb.
func with[T any](arg interface{}, verb func(T) error) error {
	in, ok := arg.(*T)
	if !ok || in == nil {
		return vfs.ErrInval
	}
	return verb(*in)
}

// put stores a getter's result through an ioctl operand of type *T.
func put[T any](arg interface{}, v T) error {
	out, ok := arg.(*T)
	if !ok || out == nil {
		return vfs.ErrInval
	}
	*out = v
	return nil
}

// get answers the read-only operations, which a read-only descriptor may
// issue, with p locked. Operations that build scratch state (snapshots, map
// tables, watchpoint lists, descriptor images) are the ioctl layer's
// allocation choke point; an injected failure surfaces as EAGAIN, the
// paper's errno for a transiently unsatisfiable request.
func get(p *kernel.Proc, cmd int, arg interface{}) error {
	switch cmd {
	case PIOCACTION, PIOCMAP, PIOCGWATCH, PIOCPGD, PIOCGROUPS, PIOCOPENM:
		if siteFaultIoctl.Hit(p.Pid) {
			return vfs.ErrAgain
		}
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
	case PIOCGTRACE:
		return put(arg, p.Trace.Sigs)
	case PIOCGHOLD:
		var hold types.SigSet
		if l := p.Rep(); l != nil {
			hold = l.SigHold
		}
		return put(arg, hold)
	case PIOCMAXSIG:
		return put(arg, types.MaxSig)
	case PIOCACTION:
		acts := make([]kernel.SigAction, types.MaxSig+1)
		for sig := 1; sig <= types.MaxSig; sig++ {
			acts[sig] = p.SigActionOf(sig)
		}
		return put(arg, acts)
	case PIOCGFAULT:
		return put(arg, p.Trace.Faults)
	case PIOCGENTRY:
		return put(arg, p.Trace.Entry)
	case PIOCGEXIT:
		return put(arg, p.Trace.Exit)
	case PIOCGREG, PIOCGFPREG:
		l := p.Rep()
		if l == nil {
			return vfs.ErrNotExist
		}
		if cmd == PIOCGREG {
			return put(arg, l.CPU.Regs)
		}
		return put(arg, l.CPU.FP)
	case PIOCNMAP:
		n := 0
		if p.AS != nil {
			n = p.AS.NSegs()
		}
		return put(arg, n)
	case PIOCMAP:
		var maps []PrMap
		if p.AS != nil {
			for _, s := range p.AS.SegsView() {
				maps = append(maps, PrMap{
					Vaddr: s.Base, Size: s.Len, Off: s.Off,
					Prot: s.Prot, Shared: s.Shared, Kind: s.Kind, Name: s.ObjName(),
				})
			}
		}
		return put(arg, maps)
	case PIOCOPENM:
		om, ok := arg.(*OpenMap)
		if !ok || om == nil {
			return vfs.ErrInval
		}
		return openMapped(p, om)
	case PIOCCRED:
		return put(arg, p.Credentials())
	case PIOCGROUPS:
		return put(arg, append([]int(nil), p.Cred.Groups...))
	case PIOCGETPR:
		// Deprecated: exposes the implementation's proc structure, tying
		// the caller to this version of the system.
		return put(arg, p)
	case PIOCGETU:
		return put(arg, UArea{
			CWD: p.CWD, Umask: p.Umask,
			Args: append([]string(nil), p.Args...),
			FDs:  p.FDs(),
		})
	case PIOCUSAGE:
		return put(arg, UsageOf(p))
	case PIOCGWATCH:
		var ws []PrWatch
		if p.AS != nil {
			for _, w := range p.AS.WatchesView() {
				ws = append(ws, PrWatch{Vaddr: w.Addr, Size: w.Len, Mode: w.Mode})
			}
		}
		return put(arg, ws)
	case PIOCPGD:
		var pd []PageData
		if p.AS != nil {
			ps := int(p.AS.PageSize())
			for _, s := range p.AS.SegsView() {
				pd = append(pd, PageData{
					Vaddr:        s.Base,
					Pages:        (int(s.Len) + ps - 1) / ps,
					PrivatePages: s.PrivatePages(),
				})
			}
		}
		return put(arg, pd)
	}
	return vfs.ErrNoIoctl
}

// openMapped implements PIOCOPENM: return a read-only descriptor for the
// object mapped at a virtual address (or the a.out itself), enabling a
// debugger to find symbol tables without knowing pathnames.
func openMapped(p *kernel.Proc, om *OpenMap) error {
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
