package kernel

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// PState is the lifecycle state of a process.
type PState int

// Process states.
const (
	PAlive  PState = iota // has at least one live LWP (possibly stopped)
	PZombie               // exited, waiting to be reaped
	PGone                 // reaped; the struct lingers only in old references
)

// StopWhy explains why an LWP is stopped — the pr_why of prstatus_t.
type StopWhy int

// Stop reasons. The first five are "events of interest" (PR_ISTOP): the
// process is stopped on an event a controlling process asked about and
// awaits a run directive. WhyJobControl and WhyPtrace are the competing
// mechanisms the paper discusses.
const (
	WhyNone       StopWhy = iota
	WhyRequested          // directed to stop (PIOCSTOP / PCSTOP)
	WhySignalled          // stopped on receipt of a traced signal
	WhyFaulted            // stopped on a traced machine fault
	WhySysEntry           // stopped on entry to a traced system call
	WhySysExit            // stopped on exit from a traced system call
	WhyJobControl         // job-control stop (default action of stop signals)
	WhyPtrace             // stopped for the legacy ptrace mechanism
)

var whyNames = [...]string{"none", "requested", "signalled", "faulted",
	"sysentry", "sysexit", "jobcontrol", "ptrace"}

// String names the stop reason.
func (w StopWhy) String() string {
	if int(w) < len(whyNames) {
		return whyNames[w]
	}
	return "?"
}

// EventOfInterest reports whether the stop reason is a /proc event of
// interest (as opposed to the competing mechanisms).
func (w StopWhy) EventOfInterest() bool {
	return w == WhyRequested || w == WhySignalled || w == WhyFaulted ||
		w == WhySysEntry || w == WhySysExit
}

// phase is the position of an LWP in the kernel entry/exit cycle; the stop
// points of the paper's Figure 3 are transitions of this machine.
type phase int

const (
	phUser     phase = iota // executing user instructions
	phSysEntry              // trapped for a system call; entry stop point
	phSysRun                // executing the system call (may sleep)
	phSysExit               // storing results; exit stop point
	phRetUser               // returning to user level: issig()/psig()
	phFault                 // processing a machine fault; fault stop point
)

// waitq identifies a sleep channel; LWPs sleeping on it are woken together
// and retry their system call, in the classic "while (condition) sleep()"
// style the paper remarks on. sleepers lists the LWPs blocked on the
// channel in (pid, LWP ID) order at every width, so wakeAll touches only
// them and wakes them in pid order (TestWakeAllPidOrder pins it). The
// global lock guards every list; each caller of sleep, forgetSleep and
// wakeAll holds it.
type waitq struct {
	sleepers []*LWP
}

// sleeperCmp orders a channel's sleepers by (pid, LWP ID).
func sleeperCmp(a, b *LWP) int {
	return cmp.Or(cmp.Compare(a.Proc.Pid, b.Proc.Pid), cmp.Compare(a.ID, b.ID))
}

// add inserts l at its sorted position.
func (q *waitq) add(l *LWP) {
	i, _ := slices.BinarySearchFunc(q.sleepers, l, sleeperCmp)
	q.sleepers = slices.Insert(q.sleepers, i, l)
}

// remove drops l, keeping the rest in order.
func (q *waitq) remove(l *LWP) {
	if i, ok := slices.BinarySearchFunc(q.sleepers, l, sleeperCmp); ok && q.sleepers[i] == l {
		q.sleepers = slices.Delete(q.sleepers, i, i+1)
	}
}

// SigAction is the disposition of one signal.
type SigAction struct {
	Handler uint32       // user handler address; 0 = SIG_DFL, 1 = SIG_IGN
	Mask    types.SigSet // additional signals held during the handler
}

// Handler sentinel values.
const (
	SigDFL = 0
	SigIGN = 1
)

// sigTable holds one disposition per signal number.
type sigTable [types.MaxSig + 1]SigAction

// action returns the disposition of sig.
func (p *Proc) action(sig int) SigAction {
	if p.actions == nil {
		return SigAction{}
	}
	return p.actions[sig]
}

// setAction installs a copy of the disposition table with sig's entry
// replaced; the old table may be shared with a fork child or a checkpoint.
func (p *Proc) setAction(sig int, act SigAction) {
	if p.action(sig) == act {
		return
	}
	t := new(sigTable)
	if p.actions != nil {
		*t = *p.actions
	}
	t[sig] = act
	p.actions = t
}

// resetCaught is exec's rule for dispositions: caught signals revert to
// the default action and ignored ones stay ignored. A table left with
// nothing but defaults becomes nil.
func (p *Proc) resetCaught() {
	if p.actions == nil {
		return
	}
	t := *p.actions
	for sig := range t {
		if t[sig].Handler > SigIGN {
			t[sig] = SigAction{}
		}
	}
	switch t {
	case sigTable{}:
		p.actions = nil
	case *p.actions:
	default:
		p.actions = &t
	}
}

// TraceState is the per-process /proc tracing state: the sets of traced
// signals, faults and system calls, and the mode flags.
type TraceState struct {
	Sigs    types.SigSet // signals that stop the process on receipt
	Faults  types.FltSet // machine faults that stop the process
	Entry   types.SysSet // system calls that stop the process at entry
	Exit    types.SysSet // system calls that stop the process at exit
	InhFork bool         // inherit-on-fork: children inherit tracing flags
	RunLC   bool         // run-on-last-close: clear and run on last writable close

	// Writers counts open writable /proc file descriptors; Gen is bumped
	// when a set-id exec invalidates them; Excl marks an O_EXCL writer.
	Writers int
	Gen     int
	Excl    bool
}

// Empty reports whether no tracing at all is in effect.
func (t *TraceState) Empty() bool {
	return t.Sigs.IsEmpty() && t.Faults.IsEmpty() && t.Entry.IsEmpty() &&
		t.Exit.IsEmpty() && !t.InhFork && !t.RunLC
}

// Usage accumulates resource usage for the PIOCUSAGE proposed extension.
type Usage struct {
	UserTicks  int64 // clock ticks executing user instructions
	SysTicks   int64 // clock ticks executing system calls
	Syscalls   int64 // system calls made
	Faults     int64 // machine faults incurred
	Signals    int64 // signals received
	ForkedKids int64 // children created
	VolCtx     int64 // voluntary context switches (sleeps)
	InvolCtx   int64 // involuntary context switches (quantum expiry)
}

// Proc is the system's record of one process — the paper's proc structure
// plus what SVR4 kept in the user area.
type Proc struct {
	k *Kernel

	// mu is the per-process lock, rank 2 in the hierarchy (below the
	// global lock, above the LWP-list and run-queue locks). It guards
	// the state only the owning process's system calls and explicitly
	// locked host inspectors touch: the fd table, credentials, Pgrp,
	// Umask, Nice, CWD, signal dispositions/masks/pending set, and the
	// Usage counters (which the per-CPU tick flush folds in under this
	// lock alone — times/alarm never need the global lock on the hot
	// path). Never taken in deterministic mode; Lock/Unlock are no-ops
	// there. A holder of the global lock may take any number of Proc.mu;
	// a Proc.mu holder must never take the global lock or a second
	// Proc.mu directly (kcpu.lockGlobal drops and reacquires instead).
	mu sync.Mutex

	Pid    int
	System bool // pids 0 and 2: no user address space

	procState

	// state holds a PState. It is atomic because SMP workers check the
	// liveness of their claimed processes lock-free while a parent on
	// another CPU may reap a zombie (PZombie → PGone) under the big lock;
	// PAlive is the zero value so fresh Procs need no initialization.
	state atomic.Int32

	fds map[int]*vfs.File

	// vfork support: the parent sleeps on the child's vforkQ.
	vforkQ waitq

	// intr is the interrupt nudge. The phase machine's user-mode hot loop
	// checks only this atomic per instruction, at every width; anything
	// that could require the full signal/stop gate (a posted signal, a
	// directed stop, a current signal planted by a control operation) sets
	// it, and the gate clears it — under the global lock — once the
	// condition is fully drained for every LWP.
	intr atomic.Int32
	// ppid caches Parent.Pid (0 when no parent) so lock-free process-local
	// system calls (getpid) can read it while another CPU reparents
	// orphans under the global lock. Maintained by addProc and finishExit.
	ppid atomic.Int32

	// nrun counts LWPs in state LRun. The run queues key on it at every
	// width: a 0→1 transition (wakeup, fork, stop release) inserts the
	// process into its home queue, and the claim path and the NCPU=1
	// search drop members whose count is back to zero. Maintained by
	// setSchedState.
	nrun atomic.Int32

	waitq  waitq // this process sleeps here in wait(2)
	pauseQ waitq // this process sleeps here in pause(2)/sigsuspend(2)
}

// procState is the part of a process that a checkpoint saves and restores
// by value (snapshot.go). Every other Proc field is accounted for, with the
// reason it is not here, in TestCheckpointCoversEveryField.
type procState struct {
	Parent *Proc
	Kids   []*Proc
	Pgrp   int
	Sid    int
	Cred   types.Cred
	// SugidDirty marks a process that has done a set-id exec; /proc open
	// then requires super-user credentials.
	SugidDirty bool
	Comm       string
	Args       []string
	CWD        string
	Umask      uint16
	Nice       int
	Start      int64 // clock at creation

	AS   *mem.AS
	LWPs []*LWP

	ExitStatus int // wait(2) status encoding, valid when zombie

	// alarmAt is the clock at which alarm(2) fires, 0 when disarmed; set
	// only through setAlarm, which keeps k.alarms, under the global lock.
	alarmAt int64

	// ExecVN is the vnode of the running executable (for PIOCOPENM with
	// offset 0 and for symbol lookup); ExecPath its name.
	ExecVN   vfs.Vnode
	ExecPath string
	// Image is the parsed executable, kept for symbol lookup by debuggers
	// (the real system would re-read it from the file).
	ImageSyms func() ([]Sym, bool)

	// Signal machinery.
	SigPend types.SigSet // pending signals (process level)
	// actions is the disposition table, nil while every signal takes its
	// default action. A table is never written once installed: fork
	// shares the parent's, and signal(2) and exec install a changed copy
	// (setAction, resetCaught), so a checkpoint that saves the pointer
	// saves the table.
	actions *sigTable

	// /proc state.
	Trace TraceState
	Usage Usage

	// Event tracing: the per-process ring (nil when disabled) and the
	// portion of its drop count already folded into the kernel counters.
	KT         *ktrace.Ring
	ktDropBase uint64

	// Job control: true when stopped by a job-control signal.
	jobStopped bool
	// Ptrace: process is traced via the legacy mechanism by its parent.
	Ptraced bool

	// vfork support: a vfork child borrows the parent's address space
	// until it execs or exits.
	borrowsAS bool

	nextLWPID int
}

// Sym mirrors xout.Sym without importing it (kernel stays format-agnostic).
type Sym struct {
	Name  string
	Value uint32
}

// noteIntr marks the process as needing the full signal/stop gate on its
// next user-mode instruction boundary. Call after posting a signal, setting
// a current signal, or directing a stop.
func (p *Proc) noteIntr() { p.intr.Store(1) }

// Lock acquires the per-process lock (rank 2). It is a no-op in
// deterministic mode. Host-side inspectors (procfs ioctls, snapshots) take
// it with the global lock already held; the owning process's system calls
// take it alone.
func (p *Proc) Lock() {
	if p.k.smp != nil {
		lockOrderAcquire(rankProc)
		p.mu.Lock()
	}
}

// Unlock releases the per-process lock (no-op in deterministic mode).
func (p *Proc) Unlock() {
	if p.k.smp != nil {
		p.mu.Unlock()
		lockOrderRelease(rankProc)
	}
}

// clearIntr drops the interrupt nudge if nothing is left to gate on: no
// LWP with a directed stop, a current signal or a pending signal it does
// not hold. A pending signal every LWP holds stays pending without the
// nudge; SetHold raises it again when a mask change unblocks one. Callers
// hold the global kernel lock in SMP mode; every cross-CPU setter of the
// fields read here (PostSignal, SetCurSig, DirectStop, ptrace continue,
// /proc hold changes) holds it too, and the process's own hold changes run
// on the CPU that calls this.
func (p *Proc) clearIntr() {
	for _, l := range p.LWPs {
		if l.dstop || l.CurSig != 0 || l.deliverable() {
			return
		}
	}
	p.intr.Store(0)
}

// deliverable reports whether a pending signal is not held by the LWP
// (SIGKILL never is).
func (l *LWP) deliverable() bool {
	return !l.Proc.SigPend.Minus(l.SigHold).IsEmpty()
}

// SetHold replaces the LWP's signal hold mask; SIGKILL and SIGSTOP cannot
// be held and are dropped from it. Every hold-mask writer goes through
// here, so a change that unblocks a pending signal raises the interrupt
// nudge the gate needs to deliver it. The caller holds the lock its
// context requires for the LWP's own state: the process's lock or the
// global lock for its own system calls, both for a /proc control.
func (l *LWP) SetHold(h types.SigSet) {
	h.Del(types.SIGKILL)
	h.Del(types.SIGSTOP)
	l.SigHold = h
	if l.deliverable() {
		l.Proc.noteIntr()
	}
}

// PPid returns the parent pid (0 for parentless processes). It is safe to
// call lock-free from any CPU.
func (p *Proc) PPid() int { return int(p.ppid.Load()) }

// State returns the lifecycle state.
func (p *Proc) State() PState { return PState(p.state.Load()) }

// setState moves the process to a new lifecycle state.
func (p *Proc) setState(st PState) { p.state.Store(int32(st)) }

// Alive reports whether the process has not exited.
func (p *Proc) Alive() bool { return p.State() == PAlive }

// Zombie reports whether the process awaits reaping.
func (p *Proc) Zombie() bool { return p.State() == PZombie }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Rep returns the representative LWP (the first live one) — the thread whose
// context the flat /proc interface reports, as in single-threaded SVR4.
func (p *Proc) Rep() *LWP {
	for _, l := range p.LWPs {
		if l.state != LZombie {
			return l
		}
	}
	return nil
}

// LWP looks up a thread by id.
func (p *Proc) LWP(id int) *LWP {
	for _, l := range p.LWPs {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// LiveLWPs returns the non-zombie threads.
func (p *Proc) LiveLWPs() []*LWP {
	var out []*LWP
	for _, l := range p.LWPs {
		if l.state != LZombie {
			out = append(out, l)
		}
	}
	return out
}

// NLiveLWPs counts the non-zombie LWPs without building LiveLWPs' slice.
func (p *Proc) NLiveLWPs() int {
	n := 0
	for _, l := range p.LWPs {
		if l.state != LZombie {
			n++
		}
	}
	return n
}

// VirtSize is the total virtual memory size (0 for system processes).
func (p *Proc) VirtSize() int64 {
	if p.AS == nil {
		return 0
	}
	return p.AS.VirtSize()
}

func (p *Proc) newLWP() *LWP {
	p.nextLWPID++
	l := &LWP{ID: p.nextLWPID, Proc: p, lwpState: lwpState{state: LRun}}
	l.stateA.Store(int32(LRun))
	p.nrun.Add(1)
	l.CPU.AS = p.AS
	l.CPU.NoTLB = p.k.NoTLB
	// The LWP list is walked by the run-queue claim path under only the
	// LWP-list lock; membership changes take it too.
	k := p.k
	if k.smp != nil {
		k.lwpsMu.Lock()
		lockOrderAcquire(rankLWPs)
	}
	p.LWPs = append(p.LWPs, l)
	if k.smp != nil {
		lockOrderRelease(rankLWPs)
		k.lwpsMu.Unlock()
	}
	return l
}

// LState is the scheduling state of an LWP.
type LState int

// LWP states.
const (
	LRun    LState = iota // runnable (or running)
	LSleep                // blocked in a system call
	LStop                 // stopped
	LZombie               // exited
)

var lstateNames = [...]string{"run", "sleep", "stop", "zombie"}

// String names the state.
func (s LState) String() string {
	if int(s) < len(lstateNames) {
		return lstateNames[s]
	}
	return "?"
}

// LWP is one thread of control: a virtual CPU context plus the kernel-side
// state that the stop/run machinery manipulates.
type LWP struct {
	ID   int
	Proc *Proc
	CPU  vcpu.CPU

	// stateA mirrors state atomically for the two lock-free readers: the
	// SMP phase machine's loop-top check and the run-queue claim path.
	// All writes go through setSchedState (under the global lock in SMP
	// mode); everything else reads the plain field under that lock.
	stateA atomic.Int32

	lwpState
}

// lwpState is the part of an LWP that a checkpoint saves and restores by
// value (snapshot.go), beside the vCPU registers. Every other LWP field is
// accounted for in TestCheckpointCoversEveryField.
type lwpState struct {
	state LState
	phase phase

	// Stop bookkeeping. An LWP may be claimed stopped by several competing
	// mechanisms at once (the paper's /proc-vs-ptrace-vs-job-control
	// discussion); it runs only when no claim remains.
	procClaim   bool // stopped for /proc (event of interest or request)
	jobClaim    bool // job-control stop
	ptraceClaim bool // ptrace signal stop
	why         StopWhy
	what        int // signal, fault or syscall number for why

	dstop    bool // a /proc stop directive is pending ("/proc gets the last word")
	abortSys bool // PRSABORT: abort the current system call
	clearFlt bool // PRCFAULT applied at the faulted stop
	// Per-delivery stop bookkeeping: which stop points the current signal
	// has already passed (a process may stop twice for one signal).
	sigStopTaken    bool
	ptraceStopTaken bool

	// Signal state.
	SigHold     types.SigSet
	CurSig      int    // the current signal (promoted from pending)
	CurFlt      int    // current fault, valid at a faulted stop
	FltAddr     uint32 // faulting address for the current fault
	fltStopDone bool   // fault stop already taken for this fault

	// System call context.
	sysNum       int
	sysArgs      [6]uint32
	sysEntryDone bool // entry stop already taken for this call
	sysExitDone  bool // exit stop already taken for this call
	sysStored    bool // return values already stored in the registers
	sysRet       uint32
	sysR1        uint32
	sysErr       Errno
	// sigsuspend: the mask to restore when the call returns.
	suspSaved *types.SigSet

	// Sleep state.
	sleepQ   *waitq
	sleeping bool
	// sleep(2) deadline in clock ticks; 0 when not in a timed sleep.
	sleepDeadline int64
	// vfork: the child this LWP waits on.
	vforkChild *Proc

	// wait reporting for ptrace/job control: set when a stop should be
	// reported to the parent's wait(2) and not yet consumed.
	waitReport int // encoded status, 0 = none
}

// State returns the LWP scheduling state.
func (l *LWP) State() LState { return l.state }

// Why returns the stop reason and detail (signal/fault/syscall number).
func (l *LWP) Why() (StopWhy, int) { return l.why, l.what }

// Stopped reports whether any stop claim holds the LWP.
func (l *LWP) Stopped() bool { return l.procClaim || l.jobClaim || l.ptraceClaim }

// StoppedOnEvent reports whether the LWP is stopped on a /proc event of
// interest and awaits a run directive (PR_ISTOP).
func (l *LWP) StoppedOnEvent() bool { return l.procClaim && l.why.EventOfInterest() }

// Asleep reports whether the LWP is blocked in a system call (PR_ASLEEP).
func (l *LWP) Asleep() bool { return l.sleeping || (l.phase == phSysRun && l.state == LSleep) }

// InSyscall returns the number of the system call the LWP is executing or
// stopped in, or 0.
func (l *LWP) InSyscall() int {
	switch l.phase {
	case phSysEntry, phSysRun, phSysExit:
		return l.sysNum
	}
	return 0
}

// SysArgs returns the captured system call arguments.
func (l *LWP) SysArgs() [6]uint32 { return l.sysArgs }

// Runnable reports whether the scheduler may run this LWP now.
func (l *LWP) Runnable() bool {
	return l.state == LRun && !l.Stopped() && !l.sleeping
}

// setSchedState moves the LWP to st, maintaining the atomic mirror and the
// process's runnable-LWP count. A 0→1 runnable transition hands the process
// to its home run queue (noteSchedulable). In SMP mode every caller holds
// the global lock.
func (l *LWP) setSchedState(st LState) {
	old := l.state
	if old == st {
		return
	}
	l.state = st
	l.stateA.Store(int32(st))
	p := l.Proc
	if old == LRun {
		p.nrun.Add(-1)
	}
	if st == LRun && p.nrun.Add(1) == 1 {
		p.k.noteSchedulable(p)
	}
}

// markStopped recomputes the scheduling state from the claims.
func (l *LWP) recompute() {
	old := l.state
	switch {
	case l.state == LZombie:
	case l.Stopped():
		l.setSchedState(LStop)
	case l.sleeping:
		l.setSchedState(LSleep)
	default:
		l.setSchedState(LRun)
	}
	if l.state != old {
		if k := l.Proc.k; k.ktEnabled(l.Proc) {
			k.ktLWPState(l, old)
		}
	}
}

// stopEvent stops the LWP on a /proc event of interest.
func (l *LWP) stopEvent(why StopWhy, what int) {
	l.procClaim = true
	l.why, l.what = why, what
	l.recompute()
	l.Proc.k.tracef("pid %d lwp %d stop %v/%d", l.Proc.Pid, l.ID, why, what)
}

// DirectStop arranges for the LWP to stop at the next stop point (PIOCSTOP
// without waiting). Directed stops are honored even while the LWP sleeps.
func (l *LWP) DirectStop() {
	if l.state == LZombie {
		return
	}
	l.dstop = true
	l.Proc.noteIntr()
	if l.sleeping {
		// Wake it so the sleep loop can take the requested stop without
		// disturbing the system call.
		l.wake()
	}
}

// sleep blocks the LWP on q. The caller holds the global lock, which
// guards the sleeper lists (only global-class system calls sleep).
func (l *LWP) sleep(q *waitq) {
	l.Proc.k.assertGlobal()
	l.sleepQ = q
	l.sleeping = true
	l.Proc.Usage.VolCtx++
	q.add(l)
	l.recompute()
}

// forgetSleep clears the sleep state without recomputing: the exit path and
// wake share it. The caller holds the global lock.
func (l *LWP) forgetSleep() {
	if !l.sleeping {
		return
	}
	l.Proc.k.assertGlobal()
	l.sleepQ.remove(l)
	l.sleeping = false
	l.sleepQ = nil
}

// wake makes a sleeping LWP runnable again (it will retry its system call).
func (l *LWP) wake() {
	if !l.sleeping {
		return
	}
	l.forgetSleep()
	l.recompute()
}

// wakeAll wakes every LWP sleeping on q, in list order: (pid, LWP ID) at
// every width. Each wake removes the head of the list, so the loop runs
// once per sleeper present on entry. The caller holds the global lock.
func (k *Kernel) wakeAll(q *waitq) {
	k.assertGlobal()
	for range len(q.sleepers) {
		q.sleepers[0].wake()
	}
}
