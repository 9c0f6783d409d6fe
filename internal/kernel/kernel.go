// Package kernel implements the UNIX System V process model the paper's
// /proc interface presents: processes with address spaces and credentials,
// threads of control (LWPs) with register contexts, fork/vfork/exec/exit/
// wait, a full signal machinery reproducing the issig()/psig() logic of the
// paper's Figure 4, machine-fault handling, system-call dispatch with entry
// and exit stop points (Figure 3), job control, the legacy ptrace(2)
// mechanism that /proc supersedes, and the process-control operations /proc
// is built from (directed stops, traced events of interest, run directives).
//
// The kernel is a simulation stepped in scheduling passes: target processes
// execute on virtual CPUs, and every quantum runs the one phase machine of
// run.go on a scheduler CPU fed by its pid-ordered run queue. At NCPU=1 (the
// default) that CPU runs inline on the goroutine that calls Step, so a run
// is deterministic; above 1, worker goroutines run the same machine under a
// ranked lock hierarchy (smp.go). Controlling programs are ordinary Go code
// that calls the control API (typically through the /proc file system) and
// drives the scheduler when it needs to wait.
package kernel

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/vfs"
)

// Config tunes a kernel instance.
type Config struct {
	PageSize int // address-space page size (default mem.DefaultPageSize)
	Quantum  int // instructions per scheduling quantum (default 50)
	// NoTLB disables the vCPU translation fast path on every LWP: the
	// reference interpreter for differential testing. The REPRO_NOTLB
	// environment variable forces it for a whole test or benchmark run.
	NoTLB bool
	// NCPU is the number of scheduler CPUs, each with its own run queue.
	// 0 or 1 (the default) runs the one CPU inline on the goroutine that
	// calls Step, deterministically; above 1 each Step fans the run queues
	// out to NCPU worker goroutines with work-stealing (see smp.go). The
	// REPRO_NCPU environment variable supplies a value for a whole run when
	// the config leaves it 0 — an explicit setting wins, so the bit-for-bit
	// suites can pin the deterministic scheduler whatever the environment.
	NCPU int
}

// pidShards is the pid-map shard count (a power of two so the shard index
// is a mask). Sharding keeps pid lookups contention-free when many CPUs
// fork and look up concurrently.
const pidShards = 16

// pidShard is one shard of the pid map.
type pidShard struct {
	mu sync.RWMutex
	m  map[int]*Proc
}

// Kernel is one simulated system.
type Kernel struct {
	NS       *vfs.NS
	PageSize int
	Quantum  int
	NoTLB    bool

	// clock is the simulated time in ticks. The CPUs count ticks in their
	// own deltas and fold them in (kcpu.flush) before anything can read
	// the clock, so the hot loop pays no atomic per instruction.
	clock    atomic.Int64
	pids     [pidShards]pidShard // sharded pid map
	order    []*Proc             // scheduling and readdir order, pid-ascending
	orderMu  sync.RWMutex        // guards order for host-side readers (Procs)
	nextPid  int
	rrIndex  int           // round-robin position in order (the NCPU=1 pass order)
	tableRev atomic.Uint64 // bumped on every process-table change (fork, exit, reap)

	// cpus are the scheduler CPUs, Config.NCPU of them (smp.go).
	cpus   []*kcpu
	queues []runQueue // one per CPU, members in pid order

	// SMP mode (Config.NCPU > 1). nil smp means the one CPU runs inline
	// on the caller of Step and none of the locks below are ever taken.
	//
	// The locking hierarchy (outermost first; see docs/INTERNALS.md for
	// the field-by-field table):
	//
	//   1. global — the narrow global kernel lock: fork/exit/reap, exec,
	//      wait, cross-process signal generation, stop/run control,
	//      ptrace, /proc control operations, ktrace emission, sleeps and
	//      wakeups with every waitq sleeper list, and the Parent/Kids/order
	//      relations. Formerly the "big kernel lock"; process-local system
	//      calls no longer take it.
	//   2. Proc.mu — one process's own state: fd table, credentials,
	//      signal dispositions and masks, usage counters, address-space
	//      operations. A global holder may lock any number of Proc.mu
	//      (the only sanctioned way to hold two); a Proc.mu holder must
	//      not take global without dropping the proc lock first
	//      (kcpu.lockGlobal implements that escalation).
	//   3. lwpsMu — p.LWPs membership, so the run-queue claim path can
	//      collect runnable LWPs without the global lock.
	//   4. runQueue.mu — one run queue's membership and cursor, at any width.
	//
	// Rank-ordered acquisition is asserted in lockdebug builds
	// (-tags lockdebug, lockdebug_on.go).
	smp    *smpState
	global sync.Mutex
	lwpsMu sync.Mutex

	initProc *Proc
	clockQ   waitq   // timed sleeps (sleep(2)) block here
	alarms   []*Proc // processes with an armed alarm(2), in pid order
	// Trace, if set, receives a line for every process-model event of
	// note (stops, signals, exits); used by tests and verbose tools.
	Trace func(format string, args ...interface{})

	// Event tracing (internal/ktrace). KT is the optional kernel-wide
	// ring; KTDefaultCap, when non-zero, gives every new process a ring of
	// that capacity; ktStats accumulates the kernel-wide counters.
	KT           *ktrace.Ring
	KTDefaultCap int
	ktStats      ktrace.Stats
	// KTTap, if set, observes every emitted trace event before it is
	// appended to any ring (so the Seq field is not yet stamped). Unlike
	// the bounded rings it never drops, which is what lets the record/
	// replay subsystem capture and verify the complete stream. Only
	// consulted on the traced path; costs nothing when tracing is off.
	KTTap func(e *ktrace.Event)
}

// New creates a kernel over a name space. The conventional system processes
// 0 (sched) and 2 (pageout) are created immediately; like the paper's Figure
// 1 shows, they have no user-level address space so their /proc sizes are 0.
func New(ns *vfs.NS, cfg Config) *Kernel {
	if cfg.PageSize <= 0 {
		cfg.PageSize = mem.DefaultPageSize
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 50
	}
	if os.Getenv("REPRO_NOTLB") != "" {
		cfg.NoTLB = true
	}
	if cfg.NCPU == 0 {
		if v := os.Getenv("REPRO_NCPU"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				cfg.NCPU = n
			}
		}
	}
	k := &Kernel{
		NS:       ns,
		PageSize: cfg.PageSize,
		Quantum:  cfg.Quantum,
		NoTLB:    cfg.NoTLB,
	}
	for i := range k.pids {
		k.pids[i].m = make(map[int]*Proc)
	}
	k.cpus = make([]*kcpu, max(1, cfg.NCPU))
	for i := range k.cpus {
		k.cpus[i] = &kcpu{id: i, k: k}
	}
	k.queues = make([]runQueue, len(k.cpus))
	if len(k.cpus) > 1 {
		k.smp = newSMP(len(k.cpus))
	}
	k.newSystemProc(0, "sched")
	k.nextPid = 1 // init will be pid 1 when spawned
	return k
}

func (k *Kernel) tracef(format string, args ...interface{}) {
	if k.Trace != nil {
		k.Trace(format, args...)
	}
}

// Now returns the simulated clock in ticks.
func (k *Kernel) Now() int64 { return k.clock.Load() }

// tickClock advances the clock by one.
func (k *Kernel) tickClock() { k.clock.Add(1) }

// Tick advances the clock without running anything (timers still fire).
func (k *Kernel) Tick() {
	k.GlobalLock()
	k.tickClock()
	k.checkTimers()
	k.GlobalUnlock()
}

// GlobalLock acquires the global kernel lock. It is a no-op in
// deterministic mode, where nothing is concurrent by design; host-side
// callers (procfs control operations, ptrace controllers) use it to
// serialize against the SMP workers.
func (k *Kernel) GlobalLock() {
	if k.smp != nil {
		lockOrderAcquire(rankGlobal)
		k.global.Lock()
	}
}

// GlobalUnlock releases the global kernel lock (no-op in deterministic mode).
func (k *Kernel) GlobalUnlock() {
	if k.smp != nil {
		k.global.Unlock()
		lockOrderRelease(rankGlobal)
	}
}

// Shutdown retires the persistent SMP worker goroutines and ends the
// kernel's life: after it returns, Step panics. Deterministic kernels have
// no workers and Shutdown is a no-op. It is idempotent and safe to call
// from multiple goroutines — checkpoint/replay tears kernels down
// repeatedly, and a System.Close may race a deferred cleanup.
func (k *Kernel) Shutdown() {
	if k.smp == nil {
		return
	}
	s := k.smp
	s.shutMu.Lock()
	defer s.shutMu.Unlock()
	if s.down {
		return
	}
	s.down = true
	if s.started {
		s.started = false
		close(s.work)
	}
}

// pidShardOf returns the shard holding pid.
func (k *Kernel) pidShardOf(pid int) *pidShard {
	return &k.pids[uint(pid)&(pidShards-1)]
}

// Proc looks up a process by pid; nil if no such process.
func (k *Kernel) Proc(pid int) *Proc {
	sh := k.pidShardOf(pid)
	sh.mu.RLock()
	p := sh.m[pid]
	sh.mu.RUnlock()
	return p
}

// pidCount returns the number of pid-map entries across all shards.
func (k *Kernel) pidCount() int {
	n := 0
	for i := range k.pids {
		sh := &k.pids[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Procs returns all processes in creation order (including zombies).
func (k *Kernel) Procs() []*Proc {
	k.orderMu.RLock()
	out := append([]*Proc(nil), k.order...)
	k.orderMu.RUnlock()
	return out
}

// TableRev is the process-table revision: it advances whenever the set of
// processes (or their liveness) changes — fork, exit, reap. A caller holding
// a table snapshot compares revisions to detect churn since it was taken.
func (k *Kernel) TableRev() uint64 { return k.tableRev.Load() }

// InitProc returns process 1, if it has been spawned.
func (k *Kernel) InitProc() *Proc { return k.initProc }

func (k *Kernel) allocPid() int {
	for {
		pid := k.nextPid
		k.nextPid++
		if k.Proc(pid) == nil {
			return pid
		}
	}
}

func (k *Kernel) addProc(p *Proc) {
	if p.KT == nil && k.KTDefaultCap > 0 {
		p.KT = ktrace.NewRing(k.KTDefaultCap)
	}
	if p.Parent != nil {
		p.ppid.Store(int32(p.Parent.Pid))
	}
	sh := k.pidShardOf(p.Pid)
	sh.mu.Lock()
	sh.m[p.Pid] = p
	sh.mu.Unlock()
	k.orderMu.Lock()
	k.order = append(k.order, p)
	k.orderMu.Unlock()
	k.tableRev.Add(1)
	if p.Pid == 1 {
		k.initProc = p
	}
	k.noteSchedulable(p)
}

// removeProc drops a fully-reaped process from the tables.
func (k *Kernel) removeProc(p *Proc) {
	k.tableRev.Add(1)
	sh := k.pidShardOf(p.Pid)
	sh.mu.Lock()
	delete(sh.m, p.Pid)
	sh.mu.Unlock()
	k.orderMu.Lock()
	for i, q := range k.order {
		if q == p {
			k.order = append(k.order[:i], k.order[i+1:]...)
			break
		}
	}
	k.orderMu.Unlock()
	q := k.homeQueue(p)
	q.lock()
	if i, ok := slices.BinarySearchFunc(q.procs, p.Pid, procPidCmp); ok {
		q.remove(i)
	}
	q.unlock()
}

// newSystemProc creates a kernel-internal process with no address space.
func (k *Kernel) newSystemProc(pid int, name string) *Proc {
	p := &Proc{
		k:         k,
		Pid:       pid,
		System:    true,
		procState: procState{Comm: name, Args: []string{name}, CWD: "/", Start: k.Now()},
		fds:       map[int]*vfs.File{},
	}
	k.addProc(p)
	return p
}

// BootSystemProcs creates the conventional pid-2 pageout daemon (pid 0 is
// created by New). Call after init has been spawned so pid numbering matches
// historical systems.
func (k *Kernel) BootSystemProcs() {
	if k.Proc(2) == nil {
		k.newSystemProc(2, "pageout")
		if k.nextPid <= 2 {
			k.nextPid = 3
		}
	}
}

// ErrNoProcess is returned by control operations on exited processes.
var ErrNoProcess = errors.New("kernel: no such process")

// ErrDeadlock is returned when the scheduler is asked to wait for a
// condition that no runnable process can ever satisfy.
var ErrDeadlock = errors.New("kernel: deadlock: nothing runnable")

// Step runs one scheduling pass: every runnable LWP gets up to one quantum.
// It reports whether any instruction was executed (false means the system is
// fully idle: everything blocked, stopped or exited). The prologue advances
// the clock and fires timers. With Config.NCPU > 1 the run queues are fanned
// out to the worker goroutines (smp.go); otherwise the pass runs below, in
// the order replay pins: a round-robin over the process table that spends
// one position (rrIndex, modulo the table's current length) per process in
// the table at pass start. It jumps between run-queue members, charging
// the positions in between, and never walks the table.
func (k *Kernel) Step() bool {
	k.GlobalLock()
	k.tickClock()
	k.checkTimers()
	k.GlobalUnlock()
	if k.smp != nil {
		return k.stepSMP()
	}
	w, q := k.cpus[0], &k.queues[0]
	ran := false
	for left := len(k.order); left > 0; {
		n := len(k.order)
		first := (k.rrIndex + 1) % n
		pos, p := first, k.order[first]
		if !p.Alive() || p.nrun.Load() == 0 { // nothing to run: find the next member
			if p = q.nextFrom(p.Pid); p != nil {
				pos, _ = slices.BinarySearchFunc(k.order, p.Pid, procPidCmp)
			}
		}
		d := (pos-first+n)%n + 1 // positions up to and including p's
		if p == nil || d > left {
			k.rrIndex = (k.rrIndex + left) % n
			break
		}
		left -= d
		k.rrIndex = pos
		for _, l := range p.LWPs {
			if l.Runnable() && k.runLWPOn(w, l, k.Quantum) {
				ran = true
			}
		}
	}
	return ran
}

// nextFrom returns the first member at or after pid, wrapping around, that
// is alive with a runnable LWP, and drops the members it passes over. Only
// the NCPU=1 pass calls it, so it takes no lock.
func (q *runQueue) nextFrom(pid int) *Proc {
	i, _ := slices.BinarySearchFunc(q.procs, pid, procPidCmp)
	for len(q.procs) > 0 {
		if i == len(q.procs) {
			i = 0
		}
		if p := q.procs[i]; p.Alive() && p.nrun.Load() > 0 {
			return p
		}
		q.remove(i)
	}
	return nil
}

// Run steps the scheduler until the system is idle or maxSteps have been
// taken; it returns the number of steps.
func (k *Kernel) Run(maxSteps int) int {
	for i := 0; i < maxSteps; i++ {
		if !k.Step() {
			return i
		}
	}
	return maxSteps
}

// RunUntil steps the scheduler until cond is true. It fails with ErrDeadlock
// if the system goes idle first, and with a timeout error after maxSteps.
func (k *Kernel) RunUntil(cond func() bool, maxSteps int) error {
	for i := 0; i < maxSteps; i++ {
		if cond() {
			return nil
		}
		if !k.Step() {
			if cond() {
				return nil
			}
			if !k.TimersPending() {
				return ErrDeadlock
			}
		}
	}
	if cond() {
		return nil
	}
	return fmt.Errorf("kernel: condition not reached in %d steps", maxSteps)
}

// checkTimers fires expired alarm(2) timers and wakes timed sleepers
// (sleep(2), on k.clockQ) past their deadline, one process at a time in pid
// order, alarm first: it merges the pid-ordered k.alarms with clockQ's
// pid-ordered list (CheckInvariants holds both orders). The caller holds
// the global lock (the pass prologue, Tick), and the per-process lock is
// taken around signal generation per the PostSignal contract.
func (k *Kernel) checkTimers() {
	now := k.Now()
	q := &k.clockQ
	a, i := 0, 0 // cursors into k.alarms and q.sleepers
	for a < len(k.alarms) || i < len(q.sleepers) {
		if a < len(k.alarms) && (i == len(q.sleepers) || k.alarms[a].Pid <= q.sleepers[i].Proc.Pid) {
			p := k.alarms[a]
			if now < p.alarmAt {
				a++
				continue
			}
			k.setAlarm(p, 0) // removes it, so a now indexes the next alarm
			p.Lock()
			k.PostSignal(p, sigALRM)
			p.Unlock()
			continue
		}
		l := q.sleepers[i]
		if now >= l.sleepDeadline {
			l.wake() // removes it, so i now indexes the next sleeper
		}
		if i < len(q.sleepers) && q.sleepers[i] == l {
			i++
		}
	}
}

// setAlarm arms p's alarm(2) for time at, or disarms it when at is 0,
// keeping k.alarms in pid order. The caller holds the global lock.
func (k *Kernel) setAlarm(p *Proc, at int64) {
	i, armed := slices.BinarySearchFunc(k.alarms, p.Pid, procPidCmp)
	if at != 0 && !armed {
		k.alarms = slices.Insert(k.alarms, i, p)
	} else if at == 0 && armed {
		k.alarms = slices.Delete(k.alarms, i, i+1)
	}
	p.alarmAt = at
}

// TimersPending reports whether a future clock tick can unblock anything —
// an armed alarm or a timed sleep. It distinguishes "idle for now" from
// deadlock (Step advances the clock even when nothing runs, so pending
// timers always fire eventually).
func (k *Kernel) TimersPending() bool {
	k.GlobalLock()
	defer k.GlobalUnlock()
	return len(k.clockQ.sleepers) > 0 || len(k.alarms) > 0
}
