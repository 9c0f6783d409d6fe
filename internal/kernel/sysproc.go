package kernel

import (
	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vfs"
)

// --- exit / wait ---

func sysExit(k *Kernel, l *LWP) sysResult {
	k.exitProc(l.Proc, statusExited(int(l.sysArgs[0])))
	return sysResult{NoReturn: true}
}

// exitProc terminates a process: the exit(2) path, also reached from psig
// for fatal signals.
func (k *Kernel) exitProc(p *Proc, status int) {
	if !p.Alive() {
		return
	}
	k.tracef("pid %d exit status %#x", p.Pid, status)
	if k.ktEnabled(p) {
		k.ktExit(p, status)
	}
	p.setState(PZombie)
	p.ExitStatus = status
	k.setAlarm(p, 0)
	k.tableRev.Add(1) // liveness changed: snapshots taken before this are stale
	for _, l := range p.LWPs {
		l.forgetSleep()
		l.setSchedState(LZombie)
		l.procClaim, l.jobClaim, l.ptraceClaim = false, false, false
	}
	for _, f := range p.fds {
		f.Close()
	}
	p.fds = map[int]*vfs.File{}
	k.finishExit(p)
}

// finishExit handles the relationships: address space, vfork, children,
// parent notification.
func (k *Kernel) finishExit(p *Proc) {
	if p.AS != nil {
		if p.AS.Unref() {
			// The zombie's LWPs keep the pointer; release the pages now,
			// not when the process is reaped.
			p.AS.Release()
			k.shootdown(p.AS)
		}
		p.AS = nil
	}
	// A vfork child that exits without exec releases the borrowed space.
	if p.borrowsAS {
		p.borrowsAS = false
		k.wakeAll(&p.vforkQ)
	}
	// Reparent children to init. Reparented zombies are reaped immediately,
	// in the classic style of init.
	newParent := k.initProc
	if newParent == p || (newParent != nil && !newParent.Alive()) {
		newParent = nil
	}
	kids := p.Kids
	p.Kids = nil
	for _, kid := range kids {
		kid.Parent = newParent
		if newParent != nil {
			kid.ppid.Store(int32(newParent.Pid))
			newParent.Kids = append(newParent.Kids, kid)
		} else {
			kid.ppid.Store(0)
		}
		if kid.Zombie() {
			k.reap(kid)
		}
	}
	// Notify the parent. The disposition read and the post are
	// cross-process: take the parent's lock under the global lock.
	if p.Parent != nil && p.Parent.Alive() {
		parent := p.Parent
		parent.Lock()
		ignored := parent.Actions[types.SIGCHLD].Handler == SigIGN
		if ignored || parent == k.initProc && len(parent.waitq.sleepers) == 0 {
			parent.Unlock()
			// SIGCHLD ignored: children do not become zombies.
			k.reap(p)
		} else {
			k.PostSignal(parent, types.SIGCHLD)
			parent.Unlock()
			k.wakeAll(&parent.waitq)
		}
	} else {
		k.reap(p)
	}
}

// reap removes a zombie from the process table.
func (k *Kernel) reap(p *Proc) {
	if p.State() != PZombie {
		return
	}
	p.setState(PGone)
	if p.Parent != nil {
		kids := p.Parent.Kids[:0]
		for _, q := range p.Parent.Kids {
			if q != p {
				kids = append(kids, q)
			}
		}
		p.Parent.Kids = kids
	}
	k.removeProc(p)
}

func sysWait(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	if len(p.Kids) == 0 {
		return rerr(ECHILD)
	}
	// Zombies first.
	for _, c := range p.Kids {
		if c.Zombie() {
			pid, status := c.Pid, c.ExitStatus
			k.reap(c)
			if addr := l.sysArgs[0]; addr != 0 {
				if e := k.copyoutWord(l, addr, uint32(status)); e != 0 {
					return rerr(e)
				}
			}
			return ret2(uint32(pid), uint32(status))
		}
	}
	// Stop reports (ptrace and job control).
	for _, c := range p.Kids {
		for _, cl := range c.LWPs {
			if cl.waitReport != 0 {
				status := cl.waitReport
				cl.waitReport = 0
				if addr := l.sysArgs[0]; addr != 0 {
					if e := k.copyoutWord(l, addr, uint32(status)); e != 0 {
						return rerr(e)
					}
				}
				return ret2(uint32(c.Pid), uint32(status))
			}
		}
	}
	return rsleep(&p.waitq)
}

// --- fork / vfork ---

func sysFork(k *Kernel, l *LWP) sysResult {
	child := k.forkProc(l, false)
	if child == nil {
		return rerr(EAGAIN)
	}
	return ret2(uint32(child.Pid), 0)
}

func sysVfork(k *Kernel, l *LWP) sysResult {
	if l.vforkChild == nil {
		child := k.forkProc(l, true)
		if child == nil {
			return rerr(EAGAIN)
		}
		l.vforkChild = child
		return rsleep(&child.vforkQ)
	}
	// Woken: the child has exec'd or exited.
	child := l.vforkChild
	if child.borrowsAS {
		return rsleep(&child.vforkQ)
	}
	l.vforkChild = nil
	return ret2(uint32(child.Pid), 0)
}

// forkProc creates the child process. The child begins life at the exit of
// the fork system call (with return value 0), so with exit-from-fork traced
// — the inherit-on-fork arrangement — both parent and child stop on exit
// from fork and the child has not executed any user-level code, giving the
// debugger complete control.
func (k *Kernel) forkProc(l *LWP, vfork bool) *Proc {
	p := l.Proc
	// The proc-slot check precedes every allocation: a refused fork leaves
	// no pid, address space, or descriptor reference behind.
	if siteFaultFork.Hit(p.Pid) {
		return nil
	}
	child := &Proc{
		k:   k,
		Pid: k.allocPid(),
		procState: procState{
			Parent:    p,
			Pgrp:      p.Pgrp,
			Sid:       p.Sid,
			Cred:      p.Cred.Clone(),
			Comm:      p.Comm,
			Args:      append([]string(nil), p.Args...),
			CWD:       p.CWD,
			Umask:     p.Umask,
			Nice:      p.Nice,
			Start:     k.Now(),
			ExecVN:    p.ExecVN,
			ExecPath:  p.ExecPath,
			ImageSyms: p.ImageSyms,
			Actions:   p.Actions,
		},
		fds: map[int]*vfs.File{},
	}
	if vfork {
		child.AS = p.AS
		child.AS.Ref()
		child.borrowsAS = true
	} else {
		child.AS = p.AS.Dup()
		// Attribute the copy to the child so pid-scoped fault plans can
		// target its pages; a vfork child borrows the parent's space and
		// keeps the parent's attribution.
		child.AS.SetOwner(child.Pid)
	}
	// Duplicate the descriptor table: entries share open file descriptions.
	for fd, f := range p.fds {
		f.IncRef()
		child.fds[fd] = f
	}
	// The child inherits the parent's tracing flags if inherit-on-fork is
	// set; otherwise it starts with all tracing flags cleared.
	if p.Trace.InhFork {
		child.Trace.Sigs = p.Trace.Sigs
		child.Trace.Faults = p.Trace.Faults
		child.Trace.Entry = p.Trace.Entry
		child.Trace.Exit = p.Trace.Exit
		child.Trace.InhFork = true
		child.Trace.RunLC = p.Trace.RunLC
	}
	// Event tracing is always inherited: a traced parent's children are
	// traced from birth, so a tool following forks misses nothing.
	if p.KT != nil {
		child.KT = ktrace.NewRing(p.KT.Cap())
	}
	cl := child.newLWP()
	cl.CPU.Regs = l.CPU.Regs
	cl.CPU.FP = l.CPU.FP
	cl.SigHold = l.SigHold
	// The child resumes at the exit of fork with return value 0.
	cl.phase = phSysExit
	cl.sysNum = l.sysNum
	cl.sysEntryDone = true
	cl.sysRet, cl.sysR1, cl.sysErr = 0, 1, 0
	// With exit-from-fork traced, the child's stop is established here
	// rather than at its first scheduling: "both parent and child stop on
	// exit from fork" must be simultaneously observable. Under SMP the
	// child would otherwise not be queued (and so not stopped) until a
	// pass after the debugger has already seen the parent's stop.
	if child.Trace.Exit.Has(cl.sysNum) {
		cl.storeSysResult()
		cl.sysStored = true
		cl.sysExitDone = true
		cl.stopEvent(WhySysExit, cl.sysNum)
	}
	p.Kids = append(p.Kids, child)
	p.Usage.ForkedKids++
	k.addProc(child)
	if k.ktEnabled(p) {
		k.ktFork(p, child.Pid)
	}
	k.tracef("pid %d forked pid %d (vfork=%v)", p.Pid, child.Pid, child.borrowsAS)
	return child
}

// --- identity and credentials ---

func sysGetpid(k *Kernel, l *LWP) sysResult {
	// The cached ppid (not Parent.Pid) keeps this call process-local in SMP
	// mode: another CPU may be reparenting our orphaned siblings under the
	// big lock while we read.
	return ret2(uint32(l.Proc.Pid), uint32(l.Proc.PPid()))
}

func sysGetuid(k *Kernel, l *LWP) sysResult {
	return ret2(uint32(l.Proc.Cred.RUID), uint32(l.Proc.Cred.EUID))
}

func sysGetgid(k *Kernel, l *LWP) sysResult {
	return ret2(uint32(l.Proc.Cred.RGID), uint32(l.Proc.Cred.EGID))
}

func sysSetuid(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	uid := int(l.sysArgs[0])
	switch {
	case p.Cred.IsSuper():
		p.Cred.RUID, p.Cred.EUID, p.Cred.SUID = uid, uid, uid
	case uid == p.Cred.RUID || uid == p.Cred.SUID:
		p.Cred.EUID = uid
	default:
		return rerr(EPERM)
	}
	return ret(0)
}

func sysSetgid(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	gid := int(l.sysArgs[0])
	switch {
	case p.Cred.IsSuper():
		p.Cred.RGID, p.Cred.EGID, p.Cred.SGID = gid, gid, gid
	case gid == p.Cred.RGID || gid == p.Cred.SGID:
		p.Cred.EGID = gid
	default:
		return rerr(EPERM)
	}
	return ret(0)
}

func sysGetpgrp(k *Kernel, l *LWP) sysResult { return ret(uint32(l.Proc.Pgrp)) }

func sysSetpgrp(k *Kernel, l *LWP) sysResult {
	l.Proc.Pgrp = l.Proc.Pid
	return ret(uint32(l.Proc.Pgrp))
}

func sysNice(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	incr := int(int32(l.sysArgs[0]))
	if incr < 0 && !p.Cred.IsSuper() {
		return rerr(EPERM)
	}
	p.Nice += incr
	if p.Nice < -20 {
		p.Nice = -20
	}
	if p.Nice > 19 {
		p.Nice = 19
	}
	return ret(uint32(p.Nice + 20))
}

func sysUmask(k *Kernel, l *LWP) sysResult {
	old := l.Proc.Umask
	l.Proc.Umask = uint16(l.sysArgs[0]) & 0o777
	return ret(uint32(old))
}

// --- time and timers ---

func sysTime(k *Kernel, l *LWP) sysResult { return ret(uint32(k.Now())) }

func sysTimes(k *Kernel, l *LWP) sysResult {
	u := l.Proc.Usage
	return ret2(uint32(u.UserTicks), uint32(u.SysTicks))
}

func sysAlarm(k *Kernel, l *LWP) sysResult {
	p := l.Proc
	now := k.Now()
	var remaining int64
	if p.alarmAt > now {
		remaining = p.alarmAt - now
	}
	if ticks := int64(l.sysArgs[0]); ticks == 0 {
		k.setAlarm(p, 0)
	} else {
		k.setAlarm(p, now+ticks)
	}
	return ret(uint32(remaining))
}

func sysPause(k *Kernel, l *LWP) sysResult {
	// pause() returns only via a caught signal's EINTR.
	return rsleep(&l.Proc.pauseQ)
}

func sysSleep(k *Kernel, l *LWP) sysResult {
	if l.sleepDeadline == 0 {
		l.sleepDeadline = k.Now() + int64(l.sysArgs[0])
	}
	if k.Now() >= l.sleepDeadline {
		l.sleepDeadline = 0
		return ret(0)
	}
	return rsleep(&k.clockQ)
}

func sysYield(k *Kernel, l *LWP) sysResult { return ret(0) }

// --- signals ---

func sysKill(k *Kernel, l *LWP) sysResult {
	pid := int(int32(l.sysArgs[0]))
	sig := int(l.sysArgs[1])
	if sig < 0 || sig > types.MaxSig {
		return rerr(EINVAL)
	}
	p := l.Proc
	// Cross-process access: the target's credentials and usage are written
	// by its own process-local calls under only its process lock, so the
	// permission check and the post take global + target lock.
	send := func(t *Proc) Errno {
		t.Lock()
		defer t.Unlock()
		if !p.Cred.IsSuper() && p.Cred.RUID != t.Cred.RUID && p.Cred.EUID != t.Cred.RUID {
			return EPERM
		}
		if sig != 0 {
			k.PostSignal(t, sig)
		}
		return 0
	}
	if pid > 0 {
		t := k.Proc(pid)
		if t == nil || !t.Alive() {
			return rerr(ESRCH)
		}
		if e := send(t); e != 0 {
			return rerr(e)
		}
		return ret(0)
	}
	// pid 0: the sender's process group. The membership read takes the
	// target lock too (setpgrp is process-local).
	found := false
	for _, t := range k.Procs() {
		if !t.Alive() || t.System {
			continue
		}
		t.Lock()
		match := t.Pgrp == p.Pgrp
		t.Unlock()
		if match {
			found = true
			send(t)
		}
	}
	if !found {
		return rerr(ESRCH)
	}
	return ret(0)
}

func sysSignal(k *Kernel, l *LWP) sysResult {
	sig := int(l.sysArgs[0])
	handler := l.sysArgs[1]
	if sig < 1 || sig > types.MaxSig || sig == types.SIGKILL || sig == types.SIGSTOP {
		return rerr(EINVAL)
	}
	p := l.Proc
	old := p.Actions[sig].Handler
	p.Actions[sig] = SigAction{Handler: handler}
	return ret(old)
}

// sigprocmask how values.
const (
	SigBlock   = 1
	SigUnblock = 2
	SigSetMask = 3
)

func sysSigmask(k *Kernel, l *LWP) sysResult {
	how := int(l.sysArgs[0])
	set := types.SigSet{uint64(l.sysArgs[1]), uint64(l.sysArgs[2])}
	old := l.SigHold
	switch how {
	case SigBlock:
		l.SigHold = l.SigHold.Union(set)
	case SigUnblock:
		l.SigHold = l.SigHold.Minus(set)
	case SigSetMask:
		l.SigHold = set
	default:
		return rerr(EINVAL)
	}
	// SIGKILL and SIGSTOP cannot be held.
	l.SigHold.Del(types.SIGKILL)
	l.SigHold.Del(types.SIGSTOP)
	return ret2(uint32(old[0]), uint32(old[1]))
}

func sysSigsusp(k *Kernel, l *LWP) sysResult {
	if l.suspSaved == nil {
		saved := l.SigHold
		l.suspSaved = &saved
		l.SigHold = types.SigSet{uint64(l.sysArgs[0]), uint64(l.sysArgs[1])}
		l.SigHold.Del(types.SIGKILL)
		l.SigHold.Del(types.SIGSTOP)
	}
	return rsleep(&l.Proc.pauseQ)
}

func sysSigreturn(k *Kernel, l *LWP) sysResult {
	if e := k.sigreturnFrame(l); e != 0 {
		k.exitProc(l.Proc, statusSignaled(types.SIGSEGV, true))
		return sysResult{NoReturn: true}
	}
	return sysResult{SkipStore: true}
}

// --- memory ---

func sysBrk(k *Kernel, l *LWP) sysResult {
	if err := l.CPU.AS.Brk(l.sysArgs[0]); err != nil {
		return rerr(ENOMEM)
	}
	k.shootdown(l.CPU.AS)
	return ret(0)
}

// mmap flag bits (simplified: anonymous memory only).
const (
	MapShared = 1
	MapFixed  = 0x10
)

func sysMmap(k *Kernel, l *LWP) sysResult {
	addr, length := l.sysArgs[0], l.sysArgs[1]
	prot := mem.Prot(l.sysArgs[2] & 7)
	flags := l.sysArgs[3]
	if length == 0 {
		return rerr(EINVAL)
	}
	args := mem.MapArgs{
		Base: addr, Len: length, Prot: prot,
		Fixed: flags&MapFixed != 0, Kind: mem.KindOther,
	}
	if flags&MapShared != 0 {
		args.Shared = true
		args.Obj = mem.NewAnon("[shm]", int(l.CPU.AS.PageSize()))
	}
	if args.Base == 0 && !args.Fixed {
		args.Base = 0x40000000 // mmap arena hint
	}
	seg, err := l.CPU.AS.Map(args)
	if err != nil {
		return rerr(ENOMEM)
	}
	k.shootdown(l.CPU.AS)
	return ret(seg.Base)
}

func sysMunmap(k *Kernel, l *LWP) sysResult {
	if err := l.CPU.AS.Unmap(l.sysArgs[0], l.sysArgs[1]); err != nil {
		return rerr(EINVAL)
	}
	k.shootdown(l.CPU.AS)
	return ret(0)
}

func sysMprotect(k *Kernel, l *LWP) sysResult {
	if err := l.CPU.AS.Mprotect(l.sysArgs[0], l.sysArgs[1], mem.Prot(l.sysArgs[2]&7)); err != nil {
		return rerr(EACCES)
	}
	k.shootdown(l.CPU.AS)
	return ret(0)
}

// --- LWPs (threads of control) ---

func sysLwpCreate(k *Kernel, l *LWP) sysResult {
	entry, stackTop := l.sysArgs[0], l.sysArgs[1]
	if stackTop%4 != 0 {
		return rerr(EINVAL)
	}
	nl := l.Proc.newLWP()
	nl.CPU.Regs.PC = entry
	nl.CPU.Regs.SP = stackTop
	nl.phase = phUser
	k.tracef("pid %d created lwp %d", l.Proc.Pid, nl.ID)
	return ret(uint32(nl.ID))
}

func sysLwpExit(k *Kernel, l *LWP) sysResult {
	l.setSchedState(LZombie)
	if l.Proc.NLiveLWPs() == 0 {
		k.exitProc(l.Proc, statusExited(0))
	}
	return sysResult{NoReturn: true}
}

func sysLwpSelf(k *Kernel, l *LWP) sysResult { return ret(uint32(l.ID)) }
