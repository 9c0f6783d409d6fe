package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// Scheduler CPUs and SMP scheduling (Config.NCPU > 1).
//
// Every kernel owns Config.NCPU kcpus, and runLWPOn always runs on one. At
// NCPU=1 Step drives its only CPU inline on the caller's goroutine, over
// the process table in round-robin order (the order replay pins); no
// goroutine, channel or run queue exists and the locks are no-ops. Above 1,
// the CPUs are worker goroutines over the run queues described below.
//
// The schedulable unit is the whole process: the LWPs of one process never
// run on two CPUs at once, which preserves the kernel's invariant that a
// process's own state is only ever mutated from "its" CPU or under the
// appropriate lock. Each process has a home run queue (by pid, so placement
// is stable) and queue membership is maintained incrementally: a process is
// enqueued when it gains its first runnable LWP (noteSchedulable, from
// wakeup and fork) and lazily dequeued when a claimer finds it dead or with
// nothing runnable. A scheduling pass resets each queue's claim cursor and
// fans out to persistent per-CPU worker goroutines parked on a channel; a
// worker drains its own queue first and then steals from the others. The
// per-pass claim stamp (Proc.lastPass) keeps a process that blocks and is
// re-woken within one pass from being claimed twice — the second claim
// would race the first CPU's still-running quantum.
//
// Locking: see the hierarchy comment on Kernel.global in kernel.go.
// Workers take the narrow global lock only for global-class kernel phases
// (fork/exit, sleeps, cross-process work — runLWPOn), the per-process lock
// alone for process-local system calls, the sleep-queue lock to collect a
// claimed process's runnable LWPs, and each run queue's own lock to claim.
// kcpu.curAS publishes which address space the worker may be touching
// lock-free (user-mode stepping); the TLB shootdown barrier spins on it.

// runQueue is one CPU's run queue. Membership (procs, the inQueue flags of
// its members, their lastPass stamps) and the claim cursor are guarded by
// mu; avail mirrors the number of unclaimed entries so thieves can probe a
// victim without taking its lock (near-empty queues otherwise serialize
// every thief on the lock for nothing — the fork_storm p99 stampede).
type runQueue struct {
	procs []*Proc
	next  int
	avail atomic.Int32
	qmu
}

// qmu wraps the queue lock so lockdebug builds see rank-ordered
// acquisition without every call site repeating the bookkeeping.
type qmu struct{ mu sync.Mutex }

func (q *qmu) lock() {
	lockOrderAcquire(rankQueue)
	q.mu.Lock()
}

func (q *qmu) unlock() {
	q.mu.Unlock()
	lockOrderRelease(rankQueue)
}

// kcpu is one scheduler CPU. Fields other than curAS are only touched by
// the goroutine driving the kcpu during a pass: its worker at NCPU>1, the
// caller of Step at NCPU=1.
type kcpu struct {
	id int
	k  *Kernel

	// curAS publishes the address space this CPU may currently be
	// translating for without holding any lock (user-mode stepping).
	// nil whenever the CPU is idle or inside the kernel. The shootdown
	// barrier spins until no CPU publishes the dying space.
	curAS atomic.Pointer[mem.AS]
	as    *mem.AS // the running LWP's space (restored into curAS on unlock)
	p     *Proc   // the process of the current quantum (enter..leave)

	// haveGlobal/haveProc track which locks this CPU holds, making the
	// acquisitions idempotent: runLWPOn acquires lazily at the first
	// kernel-phase need and unlock releases everything on return to user
	// level. Escalating from the proc lock to the global lock drops the
	// proc lock first (rank order).
	haveGlobal bool
	haveProc   bool

	// Per-quantum counter deltas, folded in by flush() on every lockProc
	// and lockGlobal call.
	ticks     int64
	userTicks int64
	sysTicks  int64
	syscalls  int64
	faults    int64
	involCtx  int64

	ran     bool   // did anything run on this CPU this pass
	scratch []*LWP // claimed-LWP buffer, reused across quanta
}

// smpState hangs off the Kernel when Config.NCPU > 1.
type smpState struct {
	queues []runQueue

	// Persistent workers: one token on work per CPU per pass, one result
	// on done per token. Lazily started at the first pass; Shutdown closes
	// work and the workers drain out.
	work    chan struct{}
	done    chan bool
	started bool
	// shutMu serializes Shutdown against concurrent callers; down marks
	// the kernel dead, so a Shutdown that lands before the lazy worker
	// start still prevents it.
	shutMu sync.Mutex
	down   bool
	pass   uint64 // pass ordinal; also keys the steal-victim rotation
}

func newSMP(n int) *smpState {
	return &smpState{
		queues: make([]runQueue, n),
		work:   make(chan struct{}, n),
		done:   make(chan bool, n),
	}
}

// NCPU returns the number of scheduler CPUs.
func (k *Kernel) NCPU() int { return len(k.cpus) }

// noteSchedulable hands p to its home run queue if it is not already a
// member. Called when a process gains its first runnable LWP (wakeup,
// continue) and at fork; no-op in deterministic mode and for system
// processes. Callers hold the global lock, except addProc's host-side
// boot path where no pass can be running.
func (k *Kernel) noteSchedulable(p *Proc) {
	s := k.smp
	if s == nil || p.System {
		return
	}
	q := &s.queues[uint(p.Pid)%uint(len(s.queues))]
	q.lock()
	if !p.inQueue {
		p.inQueue = true
		q.procs = append(q.procs, p)
		q.avail.Add(1)
	}
	q.unlock()
}

// claim pops the next claimable process, lazily dequeuing entries that are
// dead or have nothing runnable, and skipping (but consuming) entries
// already claimed this pass — a process that blocked and was re-woken
// mid-pass must not run on a second CPU while the first may still be in
// its quantum loop; it stays a member and runs next pass.
func (q *runQueue) claim(pass uint64) *Proc {
	q.lock()
	for q.next < len(q.procs) {
		p := q.procs[q.next]
		if !p.Alive() || p.nrun.Load() == 0 {
			last := len(q.procs) - 1
			q.procs[q.next] = q.procs[last]
			q.procs[last] = nil
			q.procs = q.procs[:last]
			p.inQueue = false
			q.avail.Add(-1)
			continue
		}
		q.next++
		q.avail.Add(-1)
		if p.lastPass == pass {
			continue
		}
		p.lastPass = pass
		q.unlock()
		return p
	}
	q.unlock()
	return nil
}

// lockProc makes the current process's own state safe to touch: it takes
// the process's lock (rank 2) unless this CPU already holds it or the
// global lock, which suffices on its own (see lockGlobal), and then folds
// the deltas in. The published address space is cleared before blocking:
// a CPU that blocks on any lock must never be spun on by a shootdown
// initiator, or the two would deadlock.
func (w *kcpu) lockProc() {
	if !w.haveProc && !w.haveGlobal {
		w.curAS.Store(nil)
		w.p.Lock()
		w.haveProc = true
	}
	w.flush()
}

// lockGlobal acquires the global kernel lock (rank 1). Own-process state
// may be accessed under either the global lock or the per-process lock
// (cross-process accessors hold both, so every conflicting pair shares a
// lock); global-class phases therefore do not take the proc lock at all.
// A CPU holding only the proc lock escalates by dropping it first — rank
// order forbids proc→global. Every call, held or not, folds the deltas in:
// the callers are the phases that emit trace events or touch other
// processes, and they must see every tick so far.
func (w *kcpu) lockGlobal() {
	if !w.haveGlobal {
		if w.haveProc {
			w.p.Unlock()
			w.haveProc = false
		}
		w.curAS.Store(nil)
		w.k.GlobalLock()
		w.haveGlobal = true
	}
	w.flush()
}

// unlock drops whatever locks the CPU holds and republishes the running
// space for the user-mode stepping that follows. It runs before every
// user instruction, so the common nothing-held case stays inlinable.
func (w *kcpu) unlock() {
	if w.haveProc || w.haveGlobal {
		w.release()
	}
}

// release is unlock's slow path: proc before global, the reverse of
// acquisition.
func (w *kcpu) release() {
	if w.haveProc {
		w.p.Unlock()
		w.haveProc = false
	}
	if w.haveGlobal {
		w.k.GlobalUnlock()
		w.haveGlobal = false
	}
	if w.as != nil {
		w.curAS.Store(w.as)
	}
}

// enter marks the start of a quantum for l on this CPU.
func (w *kcpu) enter(l *LWP) {
	w.p = l.Proc
	w.as = l.CPU.AS
	if w.as != nil {
		w.curAS.Store(w.as)
	}
}

// leave marks the end of a quantum: fold the deltas in — under the
// per-process lock alone when no lock is held, so a quantum spent purely
// in user mode or process-local calls never touches the global lock for
// accounting — then release everything and withdraw the published space.
func (w *kcpu) leave() {
	if w.dirty() {
		w.lockProc()
	}
	w.as = nil // nothing to republish
	w.unlock()
	w.p = nil
	w.curAS.Store(nil)
}

// dirty reports whether the CPU holds deltas not yet folded in.
func (w *kcpu) dirty() bool {
	return w.ticks != 0 || w.syscalls != 0 || w.faults != 0 || w.involCtx != 0
}

// flush folds the per-quantum deltas into the shared clock and the
// process's usage. The caller holds the global lock or the process's lock
// (either suffices for own-process state); the clock itself is atomic and
// needs neither.
func (w *kcpu) flush() {
	if !w.dirty() {
		return
	}
	p := w.p
	w.k.clock.Add(w.ticks)
	p.Usage.UserTicks += w.userTicks
	p.Usage.SysTicks += w.sysTicks
	p.Usage.Syscalls += w.syscalls
	p.Usage.Faults += w.faults
	p.Usage.InvolCtx += w.involCtx
	w.ticks, w.userTicks, w.sysTicks = 0, 0, 0
	w.syscalls, w.faults, w.involCtx = 0, 0, 0
}

// shootdown is the cross-CPU TLB invalidation barrier. The caller has
// already bumped the address space's generation (every Map/Unmap/Mprotect/
// Brk does), which stops new translations; this waits until no other CPU
// is still inside a user instruction on the space, closing the window in
// which an in-flight access could use a stale frame. The initiator runs
// under the global lock (or, for address-space-only calls, the per-process
// lock) with its own curAS withdrawn, and blocked CPUs clear theirs before
// sleeping on any lock, so the spin always terminates. At NCPU=1 the only
// CPU is the initiator itself and the barrier falls through, as it does
// for host-side callers (no pass running).
func (k *Kernel) shootdown(as *mem.AS) {
	if k.smp == nil || as == nil {
		return
	}
	for _, w := range k.cpus {
		for w.curAS.Load() == as {
			runtime.Gosched()
		}
	}
}

// stepSMP is the NCPU > 1 half of Step, after its prologue: one scheduling
// pass fanned out to the persistent worker goroutines.
func (k *Kernel) stepSMP() bool {
	s := k.smp
	s.shutMu.Lock()
	if s.down {
		s.shutMu.Unlock()
		panic("kernel: Step after Shutdown")
	}
	start := !s.started
	s.started = true
	s.shutMu.Unlock()
	if start {
		for _, w := range k.cpus {
			go k.smpWorker(w)
		}
	}

	// Arm the queues for the new pass: reset the claim cursors over the
	// incrementally-maintained membership. No rebuild, no allocation.
	s.pass++
	idle := true
	for i := range s.queues {
		q := &s.queues[i]
		q.lock()
		q.next = 0
		q.avail.Store(int32(len(q.procs)))
		if len(q.procs) > 0 {
			idle = false
		}
		q.unlock()
	}
	if idle {
		// Nothing is a member of any queue: fully blocked/stopped/exited.
		// Skip the fan-out; the prologue already advanced time.
		return false
	}

	for range k.cpus {
		s.work <- struct{}{}
	}
	ran := false
	for range k.cpus {
		if <-s.done {
			ran = true
		}
	}
	return ran
}

// smpWorker is the persistent per-CPU scheduler loop: park on the work
// channel, run one pass, report whether anything executed. Exits when
// Shutdown closes the channel.
func (k *Kernel) smpWorker(w *kcpu) {
	for range k.smp.work {
		w.ran = false
		k.runPass(w)
		k.smp.done <- w.ran
	}
}

// runPass drains this CPU's own queue, then steals. Victims are visited in
// a rotation keyed off the pass ordinal (a pure function, so no host
// nondeterminism), which spreads thieves across victims instead of
// stampeding them all onto the same near-empty queue; the avail probe lets
// a thief skip an empty victim without touching its lock.
func (k *Kernel) runPass(w *kcpu) {
	s := k.smp
	n := len(s.queues)
	k.drainQueue(w, &s.queues[w.id])
	if n == 1 {
		return
	}
	start := (w.id + int(s.pass)) % n
	for i := 0; i < n; i++ {
		qi := (start + i) % n
		if qi == w.id {
			continue
		}
		q := &s.queues[qi]
		if q.avail.Load() <= 0 {
			continue
		}
		k.drainQueue(w, q)
	}
}

func (k *Kernel) drainQueue(w *kcpu, q *runQueue) {
	for {
		p := q.claim(k.smp.pass)
		if p == nil {
			return
		}
		k.runProc(w, p)
	}
}

// runProc gives every runnable LWP of p one quantum on this CPU. The
// runnable set is collected under the sleep-queue lock (which guards LWP
// list membership) from the atomic state mirror — no global lock; the
// quanta themselves run with the usual lazy locking in runLWPOn.
func (k *Kernel) runProc(w *kcpu, p *Proc) {
	k.sleepMu.Lock()
	lockOrderAcquire(rankSleep)
	w.scratch = w.scratch[:0]
	for _, l := range p.LWPs {
		if LState(l.stateA.Load()) == LRun {
			w.scratch = append(w.scratch, l)
		}
	}
	lockOrderRelease(rankSleep)
	k.sleepMu.Unlock()
	for _, l := range w.scratch {
		if k.runLWPOn(w, l, k.Quantum) {
			w.ran = true
		}
		if !p.Alive() {
			return
		}
	}
}
