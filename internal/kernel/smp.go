package kernel

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// Scheduler CPUs and SMP scheduling (Config.NCPU > 1).
//
// Every kernel owns Config.NCPU kcpus, and runLWPOn always runs on one. At
// NCPU=1 Step drives its only CPU inline on the caller's goroutine, in the
// round-robin order over the process table that replay pins, jumping
// between the members of the one run queue (Step); no goroutine or channel
// exists and the locks other than the queue's are no-ops. Above 1, the CPUs
// are worker goroutines over the run queues described below.
//
// The schedulable unit is the whole process: the LWPs of one process never
// run on two CPUs at once, which preserves the kernel's invariant that a
// process's own state is only ever mutated from "its" CPU or under the
// appropriate lock. Each process has a home run queue (by pid, so placement
// is stable) whose members are kept in pid order. Membership is maintained
// incrementally: a process is inserted when it gains its first runnable LWP
// (noteSchedulable, from wakeup and fork), removed when it is reaped, and
// lazily dropped when a claimer or the NCPU=1 search finds it dead or with
// nothing runnable. A scheduling pass resets each queue's claim cursor and
// fans out to persistent per-CPU worker goroutines parked on a channel; a
// worker drains its own queue first and then steals from the others.
//
// No process is claimed twice in one pass (that would race the first CPU's
// quantum): a claimed process sits behind its queue's cursor, which remove
// and noteSchedulable shift with the entries, and as lazy drops happen only
// at the cursor it stays a member until reaped. A process that joins
// behind the cursor mid-pass waits for the next pass.
//
// Locking: see the hierarchy comment on Kernel.global in kernel.go.
// Workers take the narrow global lock only for global-class kernel phases
// (fork/exit, sleeps and wakeups, cross-process work — runLWPOn), the
// per-process lock alone for process-local system calls, the LWP-list lock
// to collect a claimed process's runnable LWPs, and each run queue's own
// lock to claim. kcpu.curAS publishes which address space the worker may be
// touching lock-free (user-mode stepping); the TLB shootdown barrier spins
// on it.

// runQueue is one CPU's run queue. Membership (procs, in pid order) and the
// claim cursor are guarded by mu; avail mirrors the number of unclaimed
// entries so thieves can probe a victim without taking its lock (near-empty
// queues otherwise serialize every thief on the lock for nothing — the
// fork_storm p99 stampede).
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
	// barrier spins until no CPU publishes the dying space. Only SMP
	// kernels publish (see publish); at NCPU=1 it stays nil.
	curAS atomic.Pointer[mem.AS]
	l     *LWP  // the LWP of the current quantum; its space is republished on unlock
	p     *Proc // the process of the current quantum (enter..leave)

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
	pass   uint64 // pass ordinal; keys the steal-victim rotation
}

func newSMP(n int) *smpState {
	return &smpState{
		work: make(chan struct{}, n),
		done: make(chan bool, n),
	}
}

// NCPU returns the number of scheduler CPUs.
func (k *Kernel) NCPU() int { return len(k.cpus) }

// homeQueue returns p's home run queue.
func (k *Kernel) homeQueue(p *Proc) *runQueue {
	return &k.queues[uint(p.Pid)%uint(len(k.queues))]
}

// procPidCmp orders processes by pid, for binary searches by pid.
func procPidCmp(p *Proc, pid int) int { return cmp.Compare(p.Pid, pid) }

// noteSchedulable inserts p into its home run queue at its pid position if
// it is not already a member. Called when a process gains its first
// runnable LWP (wakeup, continue) and at fork; no-op for system processes.
// Callers hold the global lock, except addProc's host-side boot path where
// no pass can be running.
func (k *Kernel) noteSchedulable(p *Proc) {
	if p.System {
		return
	}
	q := k.homeQueue(p)
	q.lock()
	if i, ok := slices.BinarySearchFunc(q.procs, p.Pid, procPidCmp); !ok {
		q.procs = slices.Insert(q.procs, i, p)
		if i < q.next {
			q.next++
		} else {
			q.avail.Add(1)
		}
	}
	q.unlock()
}

// remove drops procs[i], keeping the others in order and the claim cursor
// on the same entry. The caller holds the queue lock or is the NCPU=1 pass.
func (q *runQueue) remove(i int) {
	q.procs = slices.Delete(q.procs, i, i+1)
	if i < q.next {
		q.next--
	} else {
		q.avail.Add(-1)
	}
}

// claim pops the next claimable process, lazily dequeuing entries that are
// dead or have nothing runnable.
func (q *runQueue) claim() *Proc {
	q.lock()
	for q.next < len(q.procs) {
		p := q.procs[q.next]
		if !p.Alive() || p.nrun.Load() == 0 {
			q.remove(q.next)
			continue
		}
		q.next++
		q.avail.Add(-1)
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
		w.publish(nil)
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
		w.publish(nil)
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
// acquisition. It republishes the LWP's current space, which exec may
// have replaced since enter.
func (w *kcpu) release() {
	if w.haveProc {
		w.p.Unlock()
		w.haveProc = false
	}
	if w.haveGlobal {
		w.k.GlobalUnlock()
		w.haveGlobal = false
	}
	if w.l != nil && w.l.CPU.AS != nil {
		w.publish(w.l.CPU.AS)
	}
}

// enter marks the start of a quantum for l on this CPU.
func (w *kcpu) enter(l *LWP) {
	w.p = l.Proc
	w.l = l
	if l.CPU.AS != nil {
		w.publish(l.CPU.AS)
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
	w.l = nil // nothing to republish
	w.unlock()
	w.p = nil
	w.publish(nil)
}

// publish sets the space this CPU publishes for the shootdown barrier.
// Only another CPU ever reads it, so at NCPU=1 nothing is stored: the only
// CPU is the shootdown's initiator, and the barrier does not spin.
func (w *kcpu) publish(as *mem.AS) {
	if w.k.smp != nil {
		w.curAS.Store(as)
	}
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
// for host-side callers (no pass running). Past the barrier no CPU can
// translate through the frames the space dropped, so at every width it
// ends by handing them to the frame free list.
func (k *Kernel) shootdown(as *mem.AS) {
	if as == nil {
		return
	}
	if k.smp != nil {
		for _, w := range k.cpus {
			for w.curAS.Load() == as {
				runtime.Gosched()
			}
		}
	}
	as.Reclaim()
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
	for i := range k.queues {
		q := &k.queues[i]
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
	n := len(k.queues)
	k.drainQueue(w, &k.queues[w.id])
	if n == 1 {
		return
	}
	start := (w.id + int(k.smp.pass)) % n
	for i := 0; i < n; i++ {
		qi := (start + i) % n
		if qi == w.id {
			continue
		}
		q := &k.queues[qi]
		if q.avail.Load() <= 0 {
			continue
		}
		k.drainQueue(w, q)
	}
}

func (k *Kernel) drainQueue(w *kcpu, q *runQueue) {
	for {
		p := q.claim()
		if p == nil {
			return
		}
		k.runProc(w, p)
	}
}

// runProc gives every runnable LWP of p one quantum on this CPU. The
// runnable set is collected under the LWP-list lock from the atomic state
// mirror — no global lock; the quanta themselves run with the usual lazy
// locking in runLWPOn.
func (k *Kernel) runProc(w *kcpu, p *Proc) {
	k.lwpsMu.Lock()
	lockOrderAcquire(rankLWPs)
	w.scratch = w.scratch[:0]
	for _, l := range p.LWPs {
		if LState(l.stateA.Load()) == LRun {
			w.scratch = append(w.scratch, l)
		}
	}
	lockOrderRelease(rankLWPs)
	k.lwpsMu.Unlock()
	for _, l := range w.scratch {
		if k.runLWPOn(w, l, k.Quantum) {
			w.ran = true
		}
		if !p.Alive() {
			return
		}
	}
}
