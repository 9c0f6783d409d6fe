package kernel

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/ktrace"
	"repro/internal/mem"
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
// What is saved follows one rule: a field in procState or lwpState (proc.go)
// is checkpointed by value, with one assignment each way; every other field
// of Proc and LWP is listed, with how a checkpoint treats it, in
// TestCheckpointCoversEveryField, so a new field cannot be left out
// silently. The few reference-typed state fields the kernel edits in place
// are detached (cloned) on capture and again on restore.
//
// Snapshots are deterministic-mode only (Config.NCPU <= 1): the replayer
// pins NCPU=1, nothing is concurrent, and the deep copy can walk every
// structure lock-free.

// ErrSnapshotSMP reports a snapshot attempt on an SMP kernel.
var ErrSnapshotSMP = errors.New("kernel: snapshots require the deterministic scheduler (NCPU <= 1)")

// lwpSnap is the saved state of one LWP: its lwpState plus the vCPU context.
type lwpSnap struct {
	l *LWP
	lwpState

	regs    vcpu.Regs
	fp      vcpu.FPRegs
	instret uint64
	as      *mem.AS
}

// procSnap is the saved state of one process: its procState plus the fields
// that live outside it.
type procSnap struct {
	p *Proc
	procState

	state    PState
	alarmAt  int64
	ppid     int32
	fds      map[int]*vfs.File
	lwpSnaps []lwpSnap
}

// detached returns s with private copies of the fields the kernel edits in
// place (the slices) or appends to (the trace ring). Capture and restore both
// detach, so a snapshot never shares them with a live process and can be
// restored any number of times. The other reference fields are aliased:
// what they point at is either never edited in place (Cred.Groups, the
// vnode, ImageSyms) or checkpointed on its own (processes, address spaces).
func (s procState) detached() procState {
	s.Kids = slices.Clone(s.Kids)
	s.Args = slices.Clone(s.Args)
	s.LWPs = slices.Clone(s.LWPs)
	if s.KT != nil {
		s.KT = s.KT.Clone()
	}
	return s
}

// detached returns s with a private copy of the sigsuspend mask; sleepQ and
// vforkChild point into pointer-stable objects and stay aliased.
func (s lwpState) detached() lwpState {
	if s.suspSaved != nil {
		saved := *s.suspSaved
		s.suspSaved = &saved
	}
	return s
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
		p:         p,
		procState: p.procState.detached(),
		state:     p.State(),
		alarmAt:   p.alarmAt.Load(),
		ppid:      p.ppid.Load(),
		fds:       maps.Clone(p.fds),
	}
	if p.AS != nil {
		if _, done := sn.ases[p.AS]; !done {
			sn.ases[p.AS] = p.AS.SaveState()
		}
	}
	for _, f := range p.fds {
		sn.snapFile(f, seenPipes)
	}
	for _, l := range p.LWPs {
		ps.lwpSnaps = append(ps.lwpSnaps, lwpSnap{
			l:        l,
			lwpState: l.lwpState.detached(),
			regs:     l.CPU.Regs,
			fp:       l.CPU.FP,
			instret:  l.CPU.Instret,
			as:       l.CPU.AS,
		})
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
	p.procState = ps.procState.detached()
	p.setState(ps.state)
	p.alarmAt.Store(ps.alarmAt)
	p.ppid.Store(ps.ppid)
	p.fds = maps.Clone(ps.fds)
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
	l.lwpState = s.lwpState.detached()
	l.stateA.Store(int32(l.state))
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
