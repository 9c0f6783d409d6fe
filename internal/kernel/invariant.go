package kernel

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// CheckInvariants verifies the kernel's structural invariants: process-table
// and pid-map consistency, parent/child bidirectionality, descriptor-table
// and address-space accounting, page-frame ownership against the frame free
// list, /proc writer counts, TLB generation consistency for every LWP, the
// sleeper lists, the run queues and the alarm list, and the sanity of every
// ktrace ring. The fault-storm harness calls it after every injected fault
// — an error path anywhere in the kernel must leave all of this exactly as
// it found it. It returns the first violation found, or nil.
func (k *Kernel) CheckInvariants() error {
	if n := k.pidCount(); n != len(k.order) {
		return fmt.Errorf("kernel: pid map has %d entries, order list %d", n, len(k.order))
	}
	seen := make(map[int]bool, len(k.order))
	checkedAS := make(map[*mem.AS]bool)
	lastPid := -1
	for _, p := range k.order {
		if q := k.Proc(p.Pid); q != p {
			return fmt.Errorf("kernel: pid %d maps to a different process record", p.Pid)
		}
		if seen[p.Pid] {
			return fmt.Errorf("kernel: pid %d appears twice in the order list", p.Pid)
		}
		seen[p.Pid] = true
		// The NCPU=1 pass binary-searches k.order by pid.
		if p.Pid <= lastPid {
			return fmt.Errorf("kernel: pid %d follows pid %d in the order list", p.Pid, lastPid)
		}
		lastPid = p.Pid
		if err := k.checkProc(p, checkedAS); err != nil {
			return err
		}
	}
	spaces := make([]*mem.AS, 0, len(checkedAS))
	for as := range checkedAS {
		spaces = append(spaces, as)
	}
	if err := mem.CheckFrames(spaces); err != nil {
		return err
	}
	if err := k.checkSleepers(); err != nil {
		return err
	}
	if err := k.checkQueues(); err != nil {
		return err
	}
	if k.initProc != nil && k.Proc(1) != k.initProc {
		return fmt.Errorf("kernel: init process is not pid 1 in the table")
	}
	if k.KT != nil {
		if err := k.KT.CheckSane(); err != nil {
			return fmt.Errorf("kernel trace ring: %w", err)
		}
	}
	return nil
}

func (k *Kernel) checkProc(p *Proc, checkedAS map[*mem.AS]bool) error {
	switch p.State() {
	case PAlive, PZombie:
	case PGone:
		return fmt.Errorf("kernel: pid %d is reaped but still in the process table", p.Pid)
	default:
		return fmt.Errorf("kernel: pid %d in unknown state %d", p.Pid, p.State())
	}
	// Pid 0 is the conventional sched/swapper system process; every other
	// slot must carry a positive pid.
	if p.Pid < 0 || (p.Pid == 0 && !p.System) {
		return fmt.Errorf("kernel: process with non-positive pid %d", p.Pid)
	}
	// Parent/child links must be bidirectional.
	if p.Parent != nil {
		found := false
		for _, kid := range p.Parent.Kids {
			if kid == p {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("kernel: pid %d has parent %d but is not among its children",
				p.Pid, p.Parent.Pid)
		}
	}
	for _, kid := range p.Kids {
		if kid.Parent != p {
			return fmt.Errorf("kernel: pid %d lists child %d whose parent is not it",
				p.Pid, kid.Pid)
		}
		if kid.State() == PGone {
			return fmt.Errorf("kernel: pid %d lists reaped child %d", p.Pid, kid.Pid)
		}
	}
	// Descriptor table: zombies hold nothing; live tables stay in bounds.
	if p.State() == PZombie {
		if len(p.fds) != 0 {
			return fmt.Errorf("kernel: zombie pid %d holds %d open descriptors", p.Pid, len(p.fds))
		}
		if p.AS != nil {
			return fmt.Errorf("kernel: zombie pid %d still holds an address space", p.Pid)
		}
		for _, l := range p.LWPs {
			if l.state != LZombie {
				return fmt.Errorf("kernel: zombie pid %d has a live LWP", p.Pid)
			}
		}
	} else {
		if p.fds == nil {
			return fmt.Errorf("kernel: live pid %d has no descriptor table", p.Pid)
		}
		for fd, f := range p.fds {
			if fd < 0 || fd >= OpenFDLimit {
				return fmt.Errorf("kernel: pid %d descriptor %d out of range", p.Pid, fd)
			}
			if f == nil {
				return fmt.Errorf("kernel: pid %d descriptor %d is nil", p.Pid, fd)
			}
		}
		if !p.System && len(p.LWPs) > 0 && p.AS == nil {
			return fmt.Errorf("kernel: live pid %d has LWPs but no address space", p.Pid)
		}
		if p.borrowsAS && (p.Parent == nil || p.AS == nil || p.AS != p.Parent.AS) {
			return fmt.Errorf("kernel: pid %d claims a borrowed address space it does not share", p.Pid)
		}
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
	if p.Trace.Writers < 0 {
		return fmt.Errorf("kernel: pid %d has %d /proc writers", p.Pid, p.Trace.Writers)
	}
	if p.Trace.Excl && p.Trace.Writers < 1 {
		return fmt.Errorf("kernel: pid %d holds exclusive /proc access with no writers", p.Pid)
	}
	if p.AS != nil && !checkedAS[p.AS] {
		// vfork sharers alias one space; check it once.
		checkedAS[p.AS] = true
		if err := p.AS.CheckInvariants(); err != nil {
			return fmt.Errorf("pid %d: %w", p.Pid, err)
		}
	}
	for _, l := range p.LWPs {
		if p.Alive() && l.state != LZombie && l.CPU.AS != p.AS {
			return fmt.Errorf("kernel: pid %d LWP runs on a different address space", p.Pid)
		}
		if err := l.CPU.CheckTLB(); err != nil {
			return fmt.Errorf("pid %d: %w", p.Pid, err)
		}
	}
	if p.KT != nil {
		if err := p.KT.CheckSane(); err != nil {
			return fmt.Errorf("pid %d trace ring: %w", p.Pid, err)
		}
	}
	return nil
}

// checkSleepers verifies that every sleep channel lists exactly its
// sleepers, in (pid, LWP ID) order — the order k.order and each p.LWPs
// visit them in — and that they all belong to live processes. A missing
// entry would leave an LWP asleep through wakeAll, a stale one would wake
// the wrong LWP or none, and clockQ is checked even with nobody on it.
func (k *Kernel) checkSleepers() error {
	want := map[*waitq][]*LWP{&k.clockQ: nil}
	for _, p := range k.order {
		for _, l := range p.LWPs {
			if !l.sleeping {
				continue
			}
			if l.sleepQ == nil || !p.Alive() {
				return fmt.Errorf("kernel: pid %d LWP %d sleeps on no channel or after exit", p.Pid, l.ID)
			}
			want[l.sleepQ] = append(want[l.sleepQ], l)
		}
	}
	for q, ls := range want {
		if !slices.Equal(q.sleepers, ls) {
			return fmt.Errorf("kernel: a sleep channel lists %d LWPs, not exactly its %d sleepers in pid order", len(q.sleepers), len(ls))
		}
	}
	return nil
}

// checkQueues verifies that every run queue holds only processes still in
// the table, in strictly ascending pid order (the NCPU=1 search and the SMP
// claim-once argument both rest on it), that every process with a runnable
// LWP is on its home queue, and that k.alarms lists exactly the live
// processes with an armed alarm, in pid order. A reaped process left on a
// queue would sit in a gap of the table that no later search starts below.
func (k *Kernel) checkQueues() error {
	for qi := range k.queues {
		q := &k.queues[qi]
		for i, p := range q.procs {
			if k.Proc(p.Pid) != p || i > 0 && q.procs[i-1].Pid >= p.Pid {
				return fmt.Errorf("kernel: run queue %d holds pid %d out of order or after reaping", qi, p.Pid)
			}
		}
	}
	var alarms []*Proc
	for _, p := range k.order {
		if p.nrun.Load() > 0 {
			if _, ok := slices.BinarySearchFunc(k.homeQueue(p).procs, p.Pid, procPidCmp); !ok {
				return fmt.Errorf("kernel: pid %d has runnable LWPs but is not on its run queue", p.Pid)
			}
		}
		if p.alarmAt != 0 {
			if !p.Alive() {
				return fmt.Errorf("kernel: pid %d keeps an alarm armed after exit", p.Pid)
			}
			alarms = append(alarms, p)
		}
	}
	if !slices.Equal(k.alarms, alarms) {
		return fmt.Errorf("kernel: the alarm list holds %d processes, not exactly the %d with an armed alarm in pid order", len(k.alarms), len(alarms))
	}
	return nil
}
