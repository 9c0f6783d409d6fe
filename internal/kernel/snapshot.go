package kernel

import (
	"errors"
	"fmt"

	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// Whole-kernel checkpoints: a deep copy of every piece of mutable process-
// model state, restorable in place. "In place" is the load-bearing choice —
// a checkpoint remembers the live *Proc, *LWP, *mem.AS, *vfs.File and pipe
// objects and, on restore, writes the saved state back into those same
// objects rather than building replacements. Pointer identity is what the
// kernel's cross-references hang off (a sleeping LWP's sleepQ points into
// its parent's embedded waitq, fork-shared descriptors alias one *vfs.File,
// a vfork child borrows the parent's *mem.AS), so preserving it means none
// of those references need fixing up. Objects created after the checkpoint
// simply become unreachable again; objects destroyed after it are revived,
// because the snapshot's references kept them alive.
//
// Snapshots are deterministic-mode only (Config.NCPU <= 1): the replayer
// pins NCPU=1, nothing is concurrent, and the deep copy can walk every
// structure lock-free.

// ErrSnapshotSMP reports a snapshot attempt on an SMP kernel.
var ErrSnapshotSMP = errors.New("kernel: snapshots require the deterministic scheduler (NCPU <= 1)")

// lwpSnap is the saved state of one LWP.
type lwpSnap struct {
	l *LWP

	regs    vcpu.Regs
	fp      vcpu.FPRegs
	instret uint64
	as      *mem.AS

	state LState
	phase phase

	procClaim, jobClaim, ptraceClaim bool
	why                              StopWhy
	what                             int

	dstop, abortSys, clearFlt     bool
	sigStopTaken, ptraceStopTaken bool

	sigHold     types.SigSet
	curSig      int
	curFlt      int
	fltAddr     uint32
	fltStopDone bool

	sysNum       int
	sysArgs      [6]uint32
	sysEntryDone bool
	sysExitDone  bool
	sysStored    bool
	sysRet       uint32
	sysR1        uint32
	sysErr       Errno
	suspSaved    *types.SigSet // copied, not aliased

	sleepQ        *waitq // points into pointer-stable objects (kernel, Proc, pipe)
	sleeping      bool
	sleepDeadline int64
	vforkChild    *Proc

	waitReport int
}

// procSnap is the saved state of one process.
type procSnap struct {
	p *Proc

	parent     *Proc
	kids       []*Proc
	pgrp, sid  int
	cred       types.Cred
	sugidDirty bool
	comm       string
	args       []string
	cwd        string
	umask      uint16
	nice       int
	start      int64

	as        *mem.AS
	lwps      []*LWP
	lwpSnaps  []lwpSnap
	state     PState
	exitSt    int
	fds       map[int]*vfs.File
	execVN    vfs.Vnode
	execPath  string
	imageSyms func() ([]Sym, bool)

	sigPend types.SigSet
	actions [types.MaxSig + 1]SigAction
	alarmAt int64

	trace TraceState
	usage Usage

	kt         *ktrace.Ring // clone; nil when tracing disabled
	ktDropBase uint64

	jobStopped bool
	ptraced    bool
	borrowsAS  bool
	nextLWPID  int
	ppid       int32
}

// pipeSnap is the saved state of one pipe, keyed by identity.
type pipeSnap struct {
	p       *pipe
	buf     []byte
	readers int
	writers int
}

// Snapshot is one whole-kernel checkpoint.
type Snapshot struct {
	clock    int64
	nextPid  int
	rrIndex  int
	tableRev uint64
	order    []*Proc
	initProc *Proc

	kt           *ktrace.Ring // kernel-wide ring clone; nil when disabled
	ktDefaultCap int
	ktStats      ktrace.Stats

	procs []procSnap
	ases  map[*mem.AS]*mem.ASState
	files map[*vfs.File]vfs.FileState
	pipes []pipeSnap
}

// Clock returns the simulated time the checkpoint was taken at.
func (sn *Snapshot) Clock() int64 { return sn.clock }

// Snapshot captures the kernel. The file-system contents backing mapped
// segments and open files are NOT included — memfs has its own
// SaveState/RestoreState, and a coherent checkpoint restores both together
// (internal/replay owns that pairing).
func (k *Kernel) Snapshot() (*Snapshot, error) {
	if k.smp != nil {
		return nil, ErrSnapshotSMP
	}
	sn := &Snapshot{
		clock:        k.Now(),
		nextPid:      k.nextPid,
		rrIndex:      k.rrIndex,
		tableRev:     k.tableRev.Load(),
		order:        append([]*Proc(nil), k.order...),
		initProc:     k.initProc,
		ktDefaultCap: k.KTDefaultCap,
		ktStats:      k.ktStats,
		ases:         map[*mem.AS]*mem.ASState{},
		files:        map[*vfs.File]vfs.FileState{},
	}
	if k.KT != nil {
		sn.kt = k.KT.Clone()
	}
	seenPipes := map[*pipe]bool{}
	for _, p := range k.order {
		sn.procs = append(sn.procs, k.snapProc(sn, p, seenPipes))
	}
	return sn, nil
}

func (k *Kernel) snapProc(sn *Snapshot, p *Proc, seenPipes map[*pipe]bool) procSnap {
	ps := procSnap{
		p:          p,
		parent:     p.Parent,
		kids:       append([]*Proc(nil), p.Kids...),
		pgrp:       p.Pgrp,
		sid:        p.Sid,
		cred:       p.Cred,
		sugidDirty: p.SugidDirty,
		comm:       p.Comm,
		args:       append([]string(nil), p.Args...),
		cwd:        p.CWD,
		umask:      p.Umask,
		nice:       p.Nice,
		start:      p.Start,
		as:         p.AS,
		lwps:       append([]*LWP(nil), p.LWPs...),
		state:      p.State(),
		exitSt:     p.ExitStatus,
		execVN:     p.ExecVN,
		execPath:   p.ExecPath,
		imageSyms:  p.ImageSyms,
		sigPend:    p.SigPend,
		actions:    p.Actions,
		alarmAt:    p.alarmAt.Load(),
		trace:      p.Trace,
		usage:      p.Usage,
		ktDropBase: p.ktDropBase,
		jobStopped: p.jobStopped,
		ptraced:    p.Ptraced,
		borrowsAS:  p.borrowsAS,
		nextLWPID:  p.nextLWPID,
		ppid:       p.ppid.Load(),
	}
	if p.KT != nil {
		ps.kt = p.KT.Clone()
	}
	if p.AS != nil {
		if _, done := sn.ases[p.AS]; !done {
			sn.ases[p.AS] = p.AS.SaveState()
		}
	}
	ps.fds = make(map[int]*vfs.File, len(p.fds))
	for fd, f := range p.fds {
		ps.fds[fd] = f
		sn.snapFile(f, seenPipes)
	}
	for _, l := range p.LWPs {
		ps.lwpSnaps = append(ps.lwpSnaps, snapLWP(l))
	}
	return ps
}

// snapFile records an open file description once (fork/dup share them) and,
// for pipe ends, the pipe once (both ends reference it).
func (sn *Snapshot) snapFile(f *vfs.File, seenPipes map[*pipe]bool) {
	if _, done := sn.files[f]; done {
		return
	}
	sn.files[f] = f.SaveState()
	if pe, ok := f.H.(*pipeEnd); ok && !seenPipes[pe.p] {
		seenPipes[pe.p] = true
		sn.pipes = append(sn.pipes, pipeSnap{
			p: pe.p, buf: append([]byte(nil), pe.p.buf...),
			readers: pe.p.readers, writers: pe.p.writers,
		})
	}
}

func snapLWP(l *LWP) lwpSnap {
	s := lwpSnap{
		l:       l,
		regs:    l.CPU.Regs,
		fp:      l.CPU.FP,
		instret: l.CPU.Instret,
		as:      l.CPU.AS,

		state: l.state,
		phase: l.phase,

		procClaim: l.procClaim, jobClaim: l.jobClaim, ptraceClaim: l.ptraceClaim,
		why: l.why, what: l.what,

		dstop: l.dstop, abortSys: l.abortSys, clearFlt: l.clearFlt,
		sigStopTaken: l.sigStopTaken, ptraceStopTaken: l.ptraceStopTaken,

		sigHold: l.SigHold, curSig: l.CurSig, curFlt: l.CurFlt,
		fltAddr: l.FltAddr, fltStopDone: l.fltStopDone,

		sysNum: l.sysNum, sysArgs: l.sysArgs,
		sysEntryDone: l.sysEntryDone, sysExitDone: l.sysExitDone,
		sysStored: l.sysStored, sysRet: l.sysRet, sysR1: l.sysR1, sysErr: l.sysErr,

		sleepQ: l.sleepQ, sleeping: l.sleeping, sleepDeadline: l.sleepDeadline,
		vforkChild: l.vforkChild,

		waitReport: l.waitReport,
	}
	if l.suspSaved != nil {
		saved := *l.suspSaved
		s.suspSaved = &saved
	}
	return s
}

// Restore rewinds the kernel in place to a checkpoint taken by Snapshot.
// The snapshot remains reusable: one checkpoint can seed any number of
// forward re-executions (reverse-step restores it repeatedly).
func (k *Kernel) Restore(sn *Snapshot) error {
	if k.smp != nil {
		return ErrSnapshotSMP
	}
	k.clock.Store(sn.clock)
	k.nextPid = sn.nextPid
	k.rrIndex = sn.rrIndex
	k.tableRev.Store(sn.tableRev)
	k.order = append(k.order[:0:0], sn.order...)
	k.initProc = sn.initProc
	k.KTDefaultCap = sn.ktDefaultCap
	k.ktStats = sn.ktStats
	k.KT = nil
	if sn.kt != nil {
		k.KT = sn.kt.Clone()
	}

	// Rebuild the pid map from the restored order: processes created after
	// the checkpoint drop out, reaped ones come back.
	for i := range k.pids {
		sh := &k.pids[i]
		sh.m = make(map[int]*Proc)
	}
	for _, p := range sn.order {
		k.pidShardOf(p.Pid).m[p.Pid] = p
	}

	// Address spaces, file descriptions and pipes first: the per-process
	// restore below re-points processes at them.
	for as, st := range sn.ases {
		as.LoadState(st)
	}
	for f, st := range sn.files {
		f.LoadState(st)
	}
	for _, psn := range sn.pipes {
		psn.p.buf = append([]byte(nil), psn.buf...)
		psn.p.readers = psn.readers
		psn.p.writers = psn.writers
	}

	for i := range sn.procs {
		restoreProc(&sn.procs[i])
	}
	return nil
}

func restoreProc(ps *procSnap) {
	p := ps.p
	p.Parent = ps.parent
	p.Kids = append(p.Kids[:0:0], ps.kids...)
	p.Pgrp, p.Sid = ps.pgrp, ps.sid
	p.Cred = ps.cred
	p.SugidDirty = ps.sugidDirty
	p.Comm = ps.comm
	p.Args = append(p.Args[:0:0], ps.args...)
	p.CWD = ps.cwd
	p.Umask = ps.umask
	p.Nice = ps.nice
	p.Start = ps.start
	p.AS = ps.as
	p.LWPs = append(p.LWPs[:0:0], ps.lwps...)
	p.setState(ps.state)
	p.ExitStatus = ps.exitSt
	p.ExecVN = ps.execVN
	p.ExecPath = ps.execPath
	p.ImageSyms = ps.imageSyms
	p.SigPend = ps.sigPend
	p.Actions = ps.actions
	p.alarmAt.Store(ps.alarmAt)
	p.Trace = ps.trace
	p.Usage = ps.usage
	p.ktDropBase = ps.ktDropBase
	p.jobStopped = ps.jobStopped
	p.Ptraced = ps.ptraced
	p.borrowsAS = ps.borrowsAS
	p.nextLWPID = ps.nextLWPID
	p.ppid.Store(ps.ppid)
	p.KT = nil
	if ps.kt != nil {
		p.KT = ps.kt.Clone()
	}
	p.fds = make(map[int]*vfs.File, len(ps.fds))
	for fd, f := range ps.fds {
		p.fds[fd] = f
	}
	var nrun int32
	for i := range ps.lwpSnaps {
		restoreLWP(&ps.lwpSnaps[i])
		if ps.lwpSnaps[i].state == LRun {
			nrun++
		}
	}
	p.nrun.Store(nrun)
	// Raise the interrupt nudge, then let clearIntr drop it unless a
	// restored pending signal, current signal or directed stop needs the
	// gate. The sleeper lists on embedded waitqs are SMP-only and stay
	// untouched.
	p.noteIntr()
	p.clearIntr()
	if p.k.Trace != nil {
		p.k.tracef("pid %d restored to t=%d", p.Pid, p.k.Now())
	}
}

func restoreLWP(s *lwpSnap) {
	l := s.l
	l.CPU.Regs = s.regs
	l.CPU.FP = s.fp
	l.CPU.Instret = s.instret
	l.CPU.AS = s.as
	// Cached translations may describe a post-checkpoint address space
	// whose generation counter could collide with the restored one; drop
	// them outright rather than trusting revalidation.
	l.CPU.FlushTLB()

	l.state = s.state
	l.stateA.Store(int32(s.state))
	l.phase = s.phase

	l.procClaim, l.jobClaim, l.ptraceClaim = s.procClaim, s.jobClaim, s.ptraceClaim
	l.why, l.what = s.why, s.what

	l.dstop, l.abortSys, l.clearFlt = s.dstop, s.abortSys, s.clearFlt
	l.sigStopTaken, l.ptraceStopTaken = s.sigStopTaken, s.ptraceStopTaken

	l.SigHold = s.sigHold
	l.CurSig, l.CurFlt, l.FltAddr, l.fltStopDone = s.curSig, s.curFlt, s.fltAddr, s.fltStopDone

	l.sysNum, l.sysArgs = s.sysNum, s.sysArgs
	l.sysEntryDone, l.sysExitDone, l.sysStored = s.sysEntryDone, s.sysExitDone, s.sysStored
	l.sysRet, l.sysR1, l.sysErr = s.sysRet, s.sysR1, s.sysErr
	l.suspSaved = nil
	if s.suspSaved != nil {
		saved := *s.suspSaved
		l.suspSaved = &saved
	}

	l.sleepQ, l.sleeping, l.sleepDeadline = s.sleepQ, s.sleeping, s.sleepDeadline
	l.vforkChild = s.vforkChild
	l.waitReport = s.waitReport
}

// CheckRestored verifies gross restore invariants: pid-map/order agreement
// and per-process LWP-count consistency. Tests call it after Restore.
func (k *Kernel) CheckRestored() error {
	if n := k.pidCount(); n != len(k.order) {
		return fmt.Errorf("kernel: %d pid-map entries, %d order entries", n, len(k.order))
	}
	for _, p := range k.order {
		if got := k.Proc(p.Pid); got != p {
			return fmt.Errorf("kernel: pid %d maps to a different process", p.Pid)
		}
		var nrun int32
		for _, l := range p.LWPs {
			if l.state == LRun {
				nrun++
			}
		}
		if got := p.nrun.Load(); got != nrun {
			return fmt.Errorf("kernel: pid %d nrun %d, want %d", p.Pid, got, nrun)
		}
	}
	return nil
}
